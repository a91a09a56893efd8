package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		// statistics.quantiles(range(1, 11), n=4) and (range(1, 6), n=4).
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		if got := quartiles(tc.v); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		name   string
		b      []float64
		higher bool
		bound  float64
		want   string
	}{
		{"faster", []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, false, 0.05, "gain"},
		{"slower", []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, false, 0.05, "regression"},
		{"same", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, false, 0.05, "no change"},
		{"noisy", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}, false, 0.001, "unresolved"},
		{"higher is better", []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, true, 0.05, "gain"},
	} {
		if got, _ := verdict(a, tc.b, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	exact := []float64{7, 7, 7}
	if got, _ := verdict(exact, exact, false, 0); got != "no change" {
		t.Errorf("identical counts: %q", got)
	}
	if got, _ := verdict(exact, []float64{8, 8, 8}, false, 0); got != "regression" {
		t.Errorf("larger count: %q", got)
	}
}
