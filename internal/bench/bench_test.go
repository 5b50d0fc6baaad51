package bench

import (
	"strings"
	"testing"
	"time"

	"repro/index"
	"repro/internal/pmem"
)

const smokeN = 2000

func TestKeysDeterministic(t *testing.T) {
	a, b := Keys(100, 7), Keys(100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Keys not deterministic per seed")
		}
	}
	c := Keys(100, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 10 {
		t.Fatal("different seeds produce near-identical keys")
	}
}

func TestTablePrinting(t *testing.T) {
	tbl := &Table{
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  "n",
	}
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== t ==", "a", "bb", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig3Smoke(t *testing.T) {
	tbl := Fig3(smokeN)
	if len(tbl.Rows) != 5 {
		t.Fatalf("Fig3 rows = %d, want 5", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if len(r) != 5 {
			t.Fatalf("Fig3 row width = %d", len(r))
		}
	}
}

func TestFig4Smoke(t *testing.T) {
	tbl := Fig4(smokeN)
	if len(tbl.Rows) != 5 {
		t.Fatalf("Fig4 rows = %d", len(tbl.Rows))
	}
}

func TestFig5Smoke(t *testing.T) {
	if n := len(Fig5b(smokeN).Rows); n != 5 {
		t.Fatalf("Fig5b rows = %d", n)
	}
	if n := len(Fig5c(smokeN).Rows); n != 5 {
		t.Fatalf("Fig5c rows = %d", n)
	}
}

func TestFig7Smoke(t *testing.T) {
	tbl := Fig7("search", smokeN, []int{1, 2})
	if len(tbl.Rows) != 2 {
		t.Fatalf("Fig7 rows = %d", len(tbl.Rows))
	}
	tbl = Fig7("mixed", smokeN, []int{2})
	if len(tbl.Rows) != 1 {
		t.Fatalf("Fig7 mixed rows = %d", len(tbl.Rows))
	}
}

func TestFlushCountersMatchPaperOrdering(t *testing.T) {
	tbl := Flushes(5000)
	get := func(name string) float64 {
		for _, r := range tbl.Rows {
			if r[0] == name {
				var f float64
				if _, err := sscanf(r[1], &f); err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("row %s missing", name)
		return 0
	}
	ff := get(string(index.FastFair))
	wb := get(string(index.WBTree))
	wo := get(string(index.WORT))
	// The paper's ordering: WORT flushes least; wB+-tree flushes more
	// than FAST+FAIR.
	if !(wo < ff) {
		t.Errorf("WORT flushes/insert %.2f should be < FAST+FAIR %.2f", wo, ff)
	}
	if !(wb > ff) {
		t.Errorf("wB+-tree flushes/insert %.2f should be > FAST+FAIR %.2f", wb, ff)
	}
	t.Logf("flushes/insert: FF=%.2f wB=%.2f WORT=%.2f", ff, wb, wo)
}

func sscanf(s string, f *float64) (int, error) {
	var err error
	*f, err = parseFloat(s)
	if err != nil {
		return 0, err
	}
	return 1, nil
}

func parseFloat(s string) (float64, error) {
	var v float64
	var neg bool
	i := 0
	if i < len(s) && s[i] == '-' {
		neg = true
		i++
	}
	frac := false
	div := 1.0
	for ; i < len(s); i++ {
		c := s[i]
		if c == '.' {
			frac = true
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		if frac {
			div *= 10
			v += float64(c-'0') / div
		} else {
			v = v*10 + float64(c-'0')
		}
	}
	if neg {
		v = -v
	}
	return v, nil
}

// TestLatencyShapesHold verifies the central Figure 5(c) relationship at a
// small scale: with high write latency, FAST+FAIR inserts beat wB+-tree
// (more flushes) and SkipList. The latency is set high enough (1200ns) that
// the flush-count gap dominates scheduler noise, and each side takes the
// best of three runs.
func TestLatencyShapesHold(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion is not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("wall-clock shape; CI runs with -short on shared runners")
	}
	keys := Keys(5000, 11)
	perOp := func(k index.Kind) time.Duration {
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			ix, th, err := index.New(k,
				pmem.Config{Size: 64 << 20, WriteLatency: 1200 * time.Nanosecond},
				index.Options{})
			if err != nil {
				t.Fatal(err)
			}
			el, err := Load(ix, th, keys)
			if err != nil {
				t.Fatal(err)
			}
			if rep == 0 || el < best {
				best = el
			}
		}
		return best
	}
	ff := perOp(index.FastFair)
	wb := perOp(index.WBTree)
	if wb <= ff {
		t.Errorf("expected FAST+FAIR (%v) to beat wB+-tree (%v) at 1200ns writes", ff, wb)
	}
}
