package relation

import (
	"fmt"
	"testing"

	"indep/internal/attrset"
)

// benchInstance builds a width-column instance with rows distinct live rows.
func benchInstance(b *testing.B, width, rows int) *Instance {
	b.Helper()
	var attrs attrset.Set
	for a := 0; a < width; a++ {
		attrs.Add(a)
	}
	in := NewInstance(attrs)
	t := make(Tuple, width)
	for r := 0; r < rows; r++ {
		for c := range t {
			t[c] = Value(r*width + c)
		}
		if !in.Add(t) {
			b.Fatal("duplicate row in setup")
		}
	}
	return in
}

// BenchmarkWindowScanBandwidth measures the raw scan rate of the storage
// layout over a wide instance (16 columns, 50k rows), with b.SetBytes
// reporting effective memory bandwidth so layout regressions show up as
// MB/s, not just ns/op.
//
// project is the window-render access pattern — every live row gathered
// into a scratch tuple, row-major over the column arenas. columns is the
// streaming pattern selective scans and checkpoint encoding use — each
// column arena walked contiguously.
func BenchmarkWindowScanBandwidth(b *testing.B) {
	const width, rows = 16, 50000
	in := benchInstance(b, width, rows)
	live := in.LiveRows()
	b.Run("project", func(b *testing.B) {
		proj := make(Tuple, width)
		b.SetBytes(int64(width * rows * 8))
		b.ReportAllocs()
		b.ResetTimer()
		var sink Value
		for i := 0; i < b.N; i++ {
			for _, s := range live {
				proj = in.AppendRow(proj[:0], s)
				sink += proj[0]
			}
		}
		_ = sink
	})
	b.Run("columns", func(b *testing.B) {
		b.SetBytes(int64(width * rows * 8))
		b.ReportAllocs()
		b.ResetTimer()
		var sum Value
		for i := 0; i < b.N; i++ {
			for c := 0; c < width; c++ {
				col := in.Col(c)
				for _, s := range live {
					sum += col[s]
				}
			}
		}
		if sum == 1 {
			b.Fatal("impossible") // keep the scan from being optimized away
		}
	})
}

// BenchmarkSuccessorIndex measures a snapshot's cut plus its first probe
// of a 100k-row relation, over a column of distinct values and over one of
// a thousand values a hundred rows each: with no predecessor (a fresh
// index), and as the successor of an indexed snapshot with a given share of
// its slots changed since (an inherited index). It is the evidence for
// rerootShare: up to the share at which a successor re-roots, the inherited
// build must stay cheaper than the fresh one.
func BenchmarkSuccessorIndex(b *testing.B) {
	const rows = 100000
	in := NewInstance(attrset.Of(0, 1, 2))
	for r := 0; r < rows; r++ {
		in.Add(Tuple{Value(r), Value(r % 1000), Value(r % 7)})
	}
	for _, col := range []struct {
		name string
		cols []int
	}{{"distinct", []int{0}}, {"100-per-key", []int{1}}} {
		want := []Value{1}
		b.Run(col.name+"/fresh", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in.Snapshot(nil).MatchingRows(col.cols, want)
			}
		})
		for _, share := range []int{1000, 64, 16, 9} {
			b.Run(fmt.Sprintf("%s/changed=1|%d", col.name, share), func(b *testing.B) {
				live := in.Clone()
				root := live.Snapshot(nil)
				root.MatchingRows(col.cols, want)
				t := make(Tuple, 3)
				for s := 0; s < rows/share; s++ {
					live.Remove(live.AppendRow(t[:0], int32(s*share)))
					t[0] = Value(-s - 1)
					live.Add(t)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					live.Snapshot(root).MatchingRows(col.cols, want)
				}
			})
		}
	}
}
