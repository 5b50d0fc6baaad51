package bench

import (
	"math"
	"os"
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

// TestFlushesTableIsPinned holds the §5.4 counters of all six index kinds
// to testdata/flushes.txt, the output of `go run ./cmd/benchfig -n 20000
// flushes`. The table counts flushed lines, fences and charged reads,
// which no host's timing moves, so any change that moves a counted unit
// fails here; one that moves a unit on purpose regenerates the file and
// says why.
func TestFlushesTableIsPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/flushes.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	Flushes(20000).Fprint(&got)
	if got.String() != string(want) {
		t.Errorf("§5.4 counters moved:\n%s\nwant:\n%s", got.String(), want)
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

// TestFig5aClflushIsCharged checks Figure 5(a) against the §5.4 counters:
// the FAST+FAIR clflush column at 300 ns is flushed lines per insert ×
// 300 ns, and every row, its thread timing its phases, keeps non-zero
// search and update columns.
func TestFig5aClflushIsCharged(t *testing.T) {
	tbl := Fig5a(smokeN)
	if n := len(tbl.Rows); n != 5*len(fig5Kinds) {
		t.Fatalf("Fig5a rows = %d, want %d", n, 5*len(fig5Kinds))
	}
	col := func(r []string, i int) float64 {
		f, _ := parseFloat(r[i])
		return f
	}
	clflush := -1.0
	for _, r := range tbl.Rows {
		if col(r, 4) == 0 || col(r, 5) == 0 {
			t.Errorf("Fig5a row %v: zero search or update column", r)
		}
		if r[0] == "300ns" && r[1] == string(index.FastFair) {
			clflush = col(r, 3)
		}
	}
	// Fig5a loads Keys(n, 4); the flushed lines do not depend on latency.
	ix, th, err := index.New(index.FastFair, pmem.Config{Size: poolFor(smokeN)}, index.Options{InlineValues: true})
	if err != nil {
		t.Fatal(err)
	}
	th.Stats = pmem.Stats{}
	if _, err := Load(ix, th, Keys(smokeN, 4)); err != nil {
		t.Fatal(err)
	}
	want := float64(th.Stats.FlushedLines) / smokeN * 0.3
	if math.Abs(clflush-want) > 0.01*want {
		t.Errorf("FAST+FAIR clflush at 300ns = %.3f us/insert, want %.3f (%d lines × 300 ns / %d inserts)",
			clflush, want, th.Stats.FlushedLines, smokeN)
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
// small scale: with high write latency, FAST+FAIR inserts beat wB+-tree,
// which flushes more lines per insert (the count itself is pinned by
// TestFlushesTableIsPinned: 6.18 against 4.50). The latency is set high
// enough (1200ns) that the flush-count gap dominates scheduler noise. The
// two kinds' trials alternate and each kind keeps its best of 20, so a
// burst of host load lands on both kinds rather than on one: beside two
// busy loops on a 2-core host, a best of 10 still missed every quiet
// window for FAST+FAIR in 2 of 30 runs, a best of 20 in none of 60.
func TestLatencyShapesHold(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion is not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("wall-clock shape; CI runs with -short on shared runners")
	}
	keys := Keys(5000, 11)
	trial := func(k index.Kind) time.Duration {
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
		return el
	}
	var ff, wb time.Duration
	for rep := 0; rep < 20; rep++ {
		f, w := trial(index.FastFair), trial(index.WBTree)
		if rep == 0 || f < ff {
			ff = f
		}
		if rep == 0 || w < wb {
			wb = w
		}
	}
	if wb <= ff {
		t.Errorf("expected FAST+FAIR (%v) to beat wB+-tree (%v) at 1200ns writes", ff, wb)
	}
}
