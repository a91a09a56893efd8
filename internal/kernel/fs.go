package kernel

import (
	"fmt"
	"sort"
	"strings"
)

// The in-memory VFS: enough of a filesystem for the userland the
// evaluation needs (binaries and libraries under /bin and /lib, scratch
// space under /tmp, and a device table under /dev). Devices are table
// entries, not enum cases: each /dev node carries a constructor that
// builds the File object for one open(2).

type nodeKind int

const (
	nodeFile nodeKind = iota
	nodeDir
	nodeDev
)

// DeviceOpen constructs the File object for one open(2) of a device node.
// It receives the kernel (for device state such as the urandom stream)
// and the opening process (the console device binds to its opener).
type DeviceOpen func(k *Kernel, p *Proc) File

type fsNode struct {
	name     string
	kind     nodeKind
	children map[string]*fsNode
	data     []byte
	dev      DeviceOpen
}

// FS is the in-memory filesystem.
type FS struct {
	root *fsNode
}

// NewFS returns a filesystem with the standard hierarchy and the standard
// device table.
func NewFS() *FS {
	fs := &FS{root: &fsNode{name: "/", kind: nodeDir, children: map[string]*fsNode{}}}
	for _, d := range []string{"/bin", "/lib", "/tmp", "/etc", "/dev", "/var"} {
		fs.Mkdir(d)
	}
	fs.RegisterDevice("/dev/null", func(k *Kernel, p *Proc) File { return nullFile{} })
	fs.RegisterDevice("/dev/zero", func(k *Kernel, p *Proc) File { return zeroFile{} })
	fs.RegisterDevice("/dev/tty", func(k *Kernel, p *Proc) File { return &ttyFile{k: k, console: p} })
	fs.RegisterDevice("/dev/urandom", func(k *Kernel, p *Proc) File { return &urandomFile{k: k} })
	return fs
}

// Clone deep-copies the filesystem tree, for boot templates
// (cheriabi.Snapshot). File contents must be copied, not shared:
// vnodeFile writes mutate node.data in place (and growth can append
// within a shared backing array), so sharing nodes would leak one
// clone's file writes into its siblings. Device constructors are
// stateless closures and are shared.
func (fs *FS) Clone() *FS {
	return &FS{root: fs.root.clone()}
}

func (n *fsNode) clone() *fsNode {
	c := &fsNode{name: n.name, kind: n.kind, dev: n.dev}
	if n.data != nil {
		c.data = make([]byte, len(n.data))
		copy(c.data, n.data)
	}
	if n.children != nil {
		c.children = make(map[string]*fsNode, len(n.children))
		for name, child := range n.children {
			c.children[name] = child.clone()
		}
	}
	return c
}

// RegisterDevice installs (or replaces) a device node at path. Adding a
// device to the system is one table entry here — the syscall layer never
// learns its name.
func (fs *FS) RegisterDevice(path string, open DeviceOpen) error {
	parts := splitPath(path)
	if len(parts) == 0 {
		return fmt.Errorf("fs: bad device path %q", path)
	}
	dir := fs.root
	for _, p := range parts[:len(parts)-1] {
		next := dir.children[p]
		if next == nil || next.kind != nodeDir {
			return fmt.Errorf("fs: no directory %q in %q", p, path)
		}
		dir = next
	}
	name := parts[len(parts)-1]
	dir.children[name] = &fsNode{name: name, kind: nodeDev, dev: open}
	return nil
}

func splitPath(path string) []string {
	var parts []string
	for _, p := range strings.Split(path, "/") {
		if p != "" && p != "." {
			parts = append(parts, p)
		}
	}
	return parts
}

func (fs *FS) lookup(path string) *fsNode {
	n := fs.root
	for _, p := range splitPath(path) {
		if n.kind != nodeDir {
			return nil
		}
		n = n.children[p]
		if n == nil {
			return nil
		}
	}
	return n
}

// Mkdir creates a directory (and parents).
func (fs *FS) Mkdir(path string) {
	n := fs.root
	for _, p := range splitPath(path) {
		child := n.children[p]
		if child == nil {
			child = &fsNode{name: p, kind: nodeDir, children: map[string]*fsNode{}}
			n.children[p] = child
		}
		n = child
	}
}

// WriteFile creates or replaces a regular file.
func (fs *FS) WriteFile(path string, data []byte) error {
	parts := splitPath(path)
	if len(parts) == 0 {
		return fmt.Errorf("fs: bad path %q", path)
	}
	dir := fs.root
	for _, p := range parts[:len(parts)-1] {
		next := dir.children[p]
		if next == nil || next.kind != nodeDir {
			return fmt.Errorf("fs: no directory %q in %q", p, path)
		}
		dir = next
	}
	name := parts[len(parts)-1]
	buf := make([]byte, len(data))
	copy(buf, data)
	dir.children[name] = &fsNode{name: name, kind: nodeFile, data: buf}
	return nil
}

// ReadFile returns a copy of a file's contents.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	n := fs.lookup(path)
	if n == nil {
		return nil, fmt.Errorf("fs: %s: not found", path)
	}
	if n.kind != nodeFile {
		return nil, fmt.Errorf("fs: %s: not a regular file", path)
	}
	out := make([]byte, len(n.data))
	copy(out, n.data)
	return out, nil
}

// Remove unlinks a file.
func (fs *FS) Remove(path string) error {
	parts := splitPath(path)
	if len(parts) == 0 {
		return fmt.Errorf("fs: bad path")
	}
	dir := fs.root
	for _, p := range parts[:len(parts)-1] {
		dir = dir.children[p]
		if dir == nil || dir.kind != nodeDir {
			return fmt.Errorf("fs: %s: not found", path)
		}
	}
	if _, ok := dir.children[parts[len(parts)-1]]; !ok {
		return fmt.Errorf("fs: %s: not found", path)
	}
	delete(dir.children, parts[len(parts)-1])
	return nil
}

// List returns sorted child names of a directory.
func (fs *FS) List(path string) ([]string, error) {
	n := fs.lookup(path)
	if n == nil || n.kind != nodeDir {
		return nil, fmt.Errorf("fs: %s: not a directory", path)
	}
	var names []string
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Open-file flags.
const (
	ORdOnly   = 0x0
	OWrOnly   = 0x1
	ORdWr     = 0x2
	OAccMode  = 0x3
	ONonblock = 0x4 // would-block transfers return EAGAIN instead of parking
	OAppend   = 0x8
	OCreat    = 0x200
	OTrunc    = 0x400
)

// fcntl(2) commands (FreeBSD numbering) and the status flags F_SETFL may
// change. O_NONBLOCK lives on the open-file description, so dup(2) and
// fork(2) sharers observe mode changes — exactly POSIX's sharing rule.
const (
	FGetFl        = 3
	FSetFl        = 4
	fcntlSettable = ONonblock | OAppend
)

// FDesc is one open-file description: the File object plus the cursor,
// open flags, and reference count that dup(2) and fork(2) share.
type FDesc struct {
	file  File
	off   int64
	flags int
	refs  int
}

func (f *FDesc) incref() *FDesc { f.refs++; return f }

func (f *FDesc) close(k *Kernel) {
	f.refs--
	if f.refs > 0 {
		return
	}
	f.file.Close(k)
}

// nonblock reports whether the description is in non-blocking mode.
func (f *FDesc) nonblock() bool { return f.flags&ONonblock != 0 }

// mayRead reports whether the descriptor's access mode permits reads.
func (f *FDesc) mayRead() bool { return f.flags&OAccMode != OWrOnly }

// mayWrite reports whether the descriptor's access mode permits writes.
func (f *FDesc) mayWrite() bool { return f.flags&OAccMode != ORdOnly }
