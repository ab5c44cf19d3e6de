package indep

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// nulRow is a row whose P name extends "a" by a NUL byte: column by column
// it orders after every row whose P is "a", whatever their Q.
var nulRow = map[string]string{"P": "a\x00", "Q": ""}

// checkWindowOrder answers R(P,Q)'s window over db at every limit, in rows
// and in IWIN1, and fails unless both match referenceWindow, each row
// strictly after the one before it.
func checkWindowOrder(t *testing.T, db *Database) {
	t.Helper()
	x := db.schema.s.U.Set("P", "Q")
	ev, err := db.schema.windowEvaluator()
	if err != nil {
		t.Fatal(err)
	}
	full, err := ev.Window(db.st, x)
	if err != nil {
		t.Fatal(err)
	}
	for limit := 0; limit <= full.Rows.Len()+1; limit++ {
		q := WindowQuery{Attrs: []string{"P", "Q"}, Limit: limit}
		got, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, total := referenceWindow(db.schema, db.st, full.Rows, x, q)
		keys := rowKeys(got.Rows, got.Attrs)
		if got.Total != total || !reflect.DeepEqual(keys, rowKeys(want, got.Attrs)) {
			t.Fatalf("limit %d:\ngot  %q\nwant %q", limit, got.Rows, want)
		}
		for i := 1; i < len(keys); i++ {
			if slices.Compare(keys[i-1], keys[i]) >= 0 {
				t.Fatalf("limit %d: row %q not before %q", limit, got.Rows[i-1], got.Rows[i])
			}
		}
		q.BinaryResult = true
		bin, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseWindowAnswer(bin.Bin); err != nil {
			t.Fatalf("limit %d: the router refuses the node's order: %v", limit, err)
		}
		dec, err := DecodeWindowBinary(bin.Bin)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec.Rows, got.Rows) {
			t.Fatalf("limit %d: binary rows %q, rows %q", limit, dec.Rows, got.Rows)
		}
	}
}

// TestWindowOrderNULWhileInterning races readers against a writer that
// inserts NUL-free rows and then nulRow, under -race in CI: every answer,
// before and after the NUL name is bound, must be in column-by-column order.
func TestWindowOrderNULWhileInterning(t *testing.T) {
	cs, err := MustParse("R(P,Q)", "").OpenConcurrentStore()
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	var sawNUL atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				res, err := cs.Query(WindowQuery{Attrs: []string{"P", "Q"}})
				if err != nil {
					t.Error(err)
					return
				}
				keys := rowKeys(res.Rows, res.Attrs)
				if !slices.IsSortedFunc(keys, slices.Compare) {
					t.Errorf("answer of %d rows out of column order: %q", len(keys), res.Rows)
					return
				}
				for _, row := range res.Rows {
					if strings.Contains(row["P"], "\x00") {
						sawNUL.Add(1)
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		p := string(rune('a' + i%3))
		if err := cs.Insert("R", map[string]string{"P": p, "Q": strings.Repeat("q", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Insert("R", nulRow); err != nil {
		t.Fatal(err)
	}
	for sawNUL.Load() == 0 && !t.Failed() {
		time.Sleep(time.Millisecond)
	}
	done.Store(true)
	wg.Wait()
}

// FuzzWindowOrder inserts arbitrary byte names into R(P,Q) and checks every
// limit's answer, in rows and in IWIN1, against referenceWindow's
// column-by-column order. Each name is length-prefixed: a byte n, then the next n%24 bytes, so names reach
// past the 8-byte prefix the order compares first. The seeds hold names
// that share that prefix and differ after it, names of exactly 8 bytes,
// bytes of 0x80 and above, and the empty name beside "\x00".
func FuzzWindowOrder(f *testing.F) {
	f.Add([]byte("\x01a\x02a\x00\x02a\x00\x00\x01b\x00\x02ab"))
	f.Add([]byte("\x01a\x01b\x02ab\x00\x01\x00\x03a\x01c"))
	seed := func(ns ...string) []byte {
		var b []byte
		for _, n := range ns {
			b = append(append(b, byte(len(n))), n...)
		}
		return b
	}
	f.Add(seed("abcdefghZ", "q", "abcdefghA", "q", "abcdefgh", "q", "abcdefghAA", "r", "abcdefgh\x00", "q"))
	f.Add(seed("p", "abcdefgh", "p", "abcdefgi", "p", "abcdefg", "p", "abcdefgh\xff", "p", "abcdefghij"))
	f.Add(seed("\x80", "x", "\xff\x01", "x", "a", "x", "\x7f", "\x80\x80\x80\x80\x80\x80\x80\x80\x80", "\x7f", "\x80\x80\x80\x80\x80\x80\x80\x80"))
	f.Add(seed("", "\x00", "\x00", "", "", "", "\x00", "\x00\x00", "\x00\x00\x00\x00\x00\x00\x00\x00\x00", "\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var names []string
		for len(data) > 0 && len(names) < 64 {
			n := min(int(data[0])%24, len(data)-1)
			names = append(names, string(data[1:1+n]))
			data = data[1+n:]
		}
		db := MustParse("R(P,Q)", "").NewDatabase()
		for i := 0; i+1 < len(names); i += 2 {
			if err := db.Insert("R", map[string]string{"P": names[i], "Q": names[i+1]}); err != nil {
				t.Fatal(err)
			}
		}
		checkWindowOrder(t, db)
	})
}

// TestWindowOrderAllocsFlat pins ordering and encoding a window's answer —
// the bounded top-k and the map-free IWIN1 encoder — to the same allocation
// count at 100 and at 1,000 rows, with and without a Limit. It runs over two
// pools of names: plain ones, and the same with every other P name ending in
// a NUL byte, which must order as cheaply.
func TestWindowOrderAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are skewed under -race; CI pins them in a plain pass")
	}
	sch := MustParse("R(P,Q,S)", "")
	count := func(n, limit int, nul bool) float64 {
		db := sch.NewDatabase()
		for i := 0; i < n; i++ {
			p := string(rune('a' + i%7))
			if nul && i%2 == 1 {
				p += "\x00"
			}
			row := map[string]string{"P": p, "Q": strings.Repeat("q", i%13), "S": strings.Repeat("s", i)}
			if err := db.Insert("R", row); err != nil {
				t.Fatal(err)
			}
		}
		ev, err := sch.windowEvaluator()
		if err != nil {
			t.Fatal(err)
		}
		res, err := ev.Window(db.st, sch.s.U.Set("P", "Q", "S"))
		if err != nil {
			t.Fatal(err)
		}
		q := WindowQuery{Attrs: []string{"P", "Q", "S"}, Limit: limit, BinaryResult: true}
		return testing.AllocsPerRun(50, func() {
			if _, err := finishWindow(sch, db.st, res, q, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, nul := range []bool{false, true} {
		for _, limit := range []int{0, 10} {
			if small, large := count(100, limit, nul), count(1000, limit, nul); small != large {
				t.Fatalf("limit %d (NUL names %v): ordering and encoding allocate %v times at 100 rows, %v at 1,000",
					limit, nul, small, large)
			}
		}
	}
}
