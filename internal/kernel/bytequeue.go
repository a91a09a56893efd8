package kernel

// Pipes and stream sockets buffer bytes in a plain slice used as a FIFO,
// bounded by pipeCap or sockCap. A read moves the unread tail to the
// front of the slice's array instead of reslicing past the bytes it
// took, so one array serves every refill; the array grows by doubling
// and never past the bound.

// queueRead moves up to len(b) of q's oldest bytes into b and returns
// the queue that remains, compacted to the front of q's array, and the
// count moved.
func queueRead(q, b []byte) ([]byte, int) {
	n := copy(b, q)
	return q[:copy(q, q[n:])], n
}

// queueWrite appends b to q. The caller keeps len(q)+len(b) within
// limit, and the array never grows past it.
func queueWrite(q, b []byte, limit int) []byte {
	if need := len(q) + len(b); need > cap(q) {
		nq := make([]byte, len(q), max(need, min(2*cap(q), limit)))
		copy(nq, q)
		q = nq
	}
	return append(q, b...)
}
