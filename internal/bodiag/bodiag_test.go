package bodiag

import (
	"testing"
)

func TestGenerate291(t *testing.T) {
	cases := Generate()
	if len(cases) != 291 {
		t.Fatalf("generated %d", len(cases))
	}
	names := map[string]bool{}
	intra, adj, api := 0, 0, 0
	for _, c := range cases {
		if names[c.Name()] {
			t.Fatalf("duplicate name %s", c.Name())
		}
		names[c.Name()] = true
		switch c.Region {
		case RegIntra:
			intra++
		case RegAdjacent:
			adj++
		case RegAPI:
			api++
		}
	}
	if intra != 12 || adj != 6 || api != 3 {
		t.Fatalf("composition intra=%d adj=%d api=%d", intra, adj, api)
	}
}

func TestVariantOffsets(t *testing.T) {
	if VarOK.Offset() != 0 || VarMin.Offset() != 1 || VarMed.Offset() != 8 || VarLarge.Offset() != 4096 {
		t.Fatal("offsets wrong")
	}
}

// TestSubsetShape runs a representative slice through all environments and
// checks the Table 3 ordering: cheriabi catches the most, mips64 almost
// nothing at min.
func TestSubsetShape(t *testing.T) {
	perRegion := 3
	if testing.Short() {
		perRegion = 1 // one case per region keeps every row populated
	}
	all := Generate()
	var subset []Case
	seen := map[Region]int{}
	for _, c := range all {
		if seen[c.Region] < perRegion {
			subset = append(subset, c)
			seen[c.Region]++
		}
	}
	res, err := RunParallel(subset, Envs, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Render())
	for _, f := range res.Failures {
		t.Errorf("failure: %s", f)
	}
	che := res.Detected["cheriabi"]
	mip := res.Detected["mips64"]
	asn := res.Detected["asan"]
	if che[0] <= mip[0] {
		t.Errorf("cheriabi min (%d) should beat mips64 (%d)", che[0], mip[0])
	}
	if che[2] != res.Total {
		t.Errorf("cheriabi large = %d, want all %d", che[2], res.Total)
	}
	if asn[0] <= mip[0] {
		t.Errorf("asan min (%d) should beat mips64 (%d)", asn[0], mip[0])
	}
}
