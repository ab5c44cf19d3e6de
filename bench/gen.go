package main

import (
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"indep"
)

// The generator. Every input the daemons receive is a pure function of
// (seed, workload, client, sequence): batch k of a client is rebuilt from
// its own PRNG stream, never from what came before, so a delete can name
// the rows of batch k-100 without remembering them and a unit test can pin
// the stream's hash. The PRNG and the Zipf sampler are written out here so
// the stream cannot change under a Go upgrade.

// gamma is splitmix64's increment.
const gamma = 0x9e3779b97f4a7c15

// mix is one splitmix64 step from x: a cheap bijective scramble of 64 bits.
func mix(x uint64) uint64 {
	x += gamma
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 sequence.
type rng struct{ s uint64 }

// newRNG derives an independent stream from a list of coordinates.
func newRNG(coords ...uint64) *rng {
	s := uint64(0x1d8e4e27c47d124f)
	for _, c := range coords {
		s = mix(s ^ c)
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	x := mix(r.s)
	r.s += gamma
	return x
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// zipfCDF is the cumulative Zipf(s) distribution over ranks 0..n-1.
type zipfCDF []float64

func newZipf(n int, s float64) zipfCDF {
	cdf := make(zipfCDF, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// draw returns a rank; rank 0 is the hottest key.
func (z zipfCDF) draw(r *rng) uint32 {
	i := sort.SearchFloat64s(z, r.float())
	if i >= len(z) {
		i = len(z) - 1
	}
	return uint32(i)
}

var keyZipf = newZipf(preloadDim, zipfS)

// op is one tuple operation before encoding. FACT rows carry four key ids;
// a DIMk row carries its key id in key[0] and is otherwise a pure function
// of it, so functional dependencies hold by construction. bad marks the
// violating variant: the stored key with one dependent value changed.
type op struct {
	rel byte // 0 FACT, k DIMk
	del bool
	bad bool
	key [4]uint32
}

// keyName renders key id of dimension k (0-based): "a17", "b3", ...
func keyName(k int, id uint32) string {
	return string(rune('a'+k)) + strconv.FormatUint(uint64(id), 10)
}

// row renders the operation's tuple as the attribute → value map the
// public API takes.
func (o op) row() map[string]string {
	if o.rel == 0 {
		return map[string]string{
			"A": keyName(0, o.key[0]), "B": keyName(1, o.key[1]),
			"C": keyName(2, o.key[2]), "D": keyName(3, o.key[3]),
		}
	}
	k := int(o.rel) - 1
	attrs := dimAttrs[k]
	row := make(map[string]string, len(attrs))
	row[attrs[0]] = keyName(k, o.key[0])
	for j, a := range attrs[1:] {
		// 61 values per dependent attribute: shared strings across keys,
		// so a new key adds one dictionary entry, not six.
		v := mix(uint64(o.key[0])<<8|uint64(k)<<4|uint64(j)) % 61
		if o.bad && j == 0 {
			v += 61
		}
		row[a] = strings.ToLower(a) + strconv.FormatUint(v, 10)
	}
	return row
}

func (o op) String() string {
	verb := "+"
	if o.del {
		verb = "-"
	}
	if o.bad {
		verb = "!"
	}
	if o.rel == 0 {
		return fmt.Sprintf("%sFACT %d %d %d %d", verb, o.key[0], o.key[1], o.key[2], o.key[3])
	}
	return fmt.Sprintf("%s%s %d", verb, relNames[o.rel], o.key[0])
}

// factKey packs a FACT row's four key ids, for client-side sets of rows.
func (o op) factKey() uint64 {
	return uint64(o.key[0])<<48 | uint64(o.key[1])<<32 | uint64(o.key[2])<<16 | uint64(o.key[3])
}

// Workload identifiers inside PRNG coordinates; fixed so that renaming a
// workload cannot silently change its stream.
const (
	streamPreload = 1
	streamIngest  = 2
	streamMixed   = 3
	streamRouted  = 4
)

// drawFact draws a FACT row over the preloaded key space. When clients > 1
// each client keeps to its own residue class of D, so two clients never
// insert or delete the same row and their streams commute — the oracle may
// then apply them in any order.
func drawFact(r *rng, client, clients int) op {
	o := op{key: [4]uint32{keyZipf.draw(r), keyZipf.draw(r), keyZipf.draw(r), keyZipf.draw(r)}}
	if clients > 1 {
		d := o.key[3] - o.key[3]%uint32(clients) + uint32(client)
		if d >= preloadDim {
			d -= uint32(clients)
		}
		o.key[3] = d
	}
	return o
}

// preloadOps is the fixed read state: every DIMk key below preloadDim and
// preloadFact distinct FACT rows over Zipf-drawn keys.
func preloadOps(seed uint64) []op {
	ops := make([]op, 0, preloadFact+4*preloadDim)
	for k := 1; k <= 4; k++ {
		for id := uint32(0); id < preloadDim; id++ {
			ops = append(ops, op{rel: byte(k), key: [4]uint32{id}})
		}
	}
	r := newRNG(seed, streamPreload)
	seen := make(map[uint64]bool, preloadFact)
	for len(seen) < preloadFact {
		o := drawFact(r, 0, 1)
		if !seen[o.factKey()] {
			seen[o.factKey()] = true
			ops = append(ops, o)
		}
	}
	return ops
}

// chunk splits ops into batches of batchOps.
func chunk(ops []op) [][]op {
	var out [][]op
	for len(ops) > 0 {
		n := min(len(ops), batchOps)
		out = append(out, ops[:n])
		ops = ops[n:]
	}
	return out
}

// ingestViolates reports whether batch seq of an ingest client carries a
// violating row: 1 batch in 50.
func ingestViolates(seq int) bool { return seq%50 == 49 }

// ingestBatch is batch seq of one ingest client: 48 FACT rows over
// Zipf-chosen keys, 12 DIM rows with fresh keys (new dictionary strings,
// new intern records), 4 DIM rows that are already stored (accepted
// no-ops). Every 50th batch swaps one re-sent row for its violating
// variant and must be refused whole.
func ingestBatch(seed uint64, client, seq int) []op {
	r := newRNG(seed, streamIngest, uint64(client), uint64(seq))
	ops := make([]op, 0, batchOps)
	for i := 0; i < 48; i++ {
		ops = append(ops, drawFact(r, 0, 1))
	}
	for i := 0; i < 12; i++ {
		// Fresh keys never collide across clients or batches.
		id := uint32(preloadDim + (seq*12+i)*maxClients + client)
		ops = append(ops, op{rel: byte(1 + i%4), key: [4]uint32{id}})
	}
	for i := 0; i < 4; i++ {
		ops = append(ops, op{rel: byte(1 + i), key: [4]uint32{keyZipf.draw(r)}})
	}
	if ingestViolates(seq) {
		ops[len(ops)-1].bad = true
	}
	return ops
}

// maxClients bounds the client index inside fresh-key arithmetic.
const maxClients = 8

// mixedLag is how many batches a mixed-workload insert lives before the
// same client deletes it again.
const mixedLag = 100

// mixedInserts is the insert half of the mixed writer's batch seq.
func mixedInserts(seed uint64, seq int) []op {
	r := newRNG(seed, streamMixed, uint64(seq))
	ops := make([]op, 16)
	for i := range ops {
		ops[i] = drawFact(r, 0, 1)
	}
	return ops
}

// mixedBatch is batch seq of the mixed writer: 16 FACT inserts and the
// deletion of the 16 rows batch seq-mixedLag inserted, so the state stays
// at preload size and both commits query a state of the same size.
func mixedBatch(seed uint64, seq int) []op {
	ops := mixedInserts(seed, seq)
	if seq >= mixedLag {
		for _, o := range mixedInserts(seed, seq-mixedLag) {
			o.del = true
			ops = append(ops, o)
		}
	}
	return ops
}

// routedLag is the lifetime, in batches, of a routed-workload insert.
const routedLag = 20

// routedInserts is the insert half of batch seq of one routed client: 24
// FACT rows in the client's own residue class and 8 DIM rows with fresh
// keys, so both relation kinds and both owners see traffic.
func routedInserts(seed uint64, client, clients, seq int) []op {
	r := newRNG(seed, streamRouted, uint64(client), uint64(seq))
	ops := make([]op, 0, 32)
	for i := 0; i < 24; i++ {
		ops = append(ops, drawFact(r, client, clients))
	}
	for i := 0; i < 8; i++ {
		id := uint32(preloadDim + (seq*8+i)*maxClients + client)
		ops = append(ops, op{rel: byte(1 + i%4), key: [4]uint32{id}})
	}
	return ops
}

// routedBatch is batch seq of one routed client: 32 inserts plus the
// deletion of what the client inserted routedLag batches earlier.
func routedBatch(seed uint64, client, clients, seq int) []op {
	ops := routedInserts(seed, client, clients, seq)
	if seq >= routedLag {
		for _, o := range routedInserts(seed, client, clients, seq-routedLag) {
			o.del = true
			ops = append(ops, o)
		}
	}
	return ops
}

// encodeBatch renders ops as a binary batch payload through the public
// encoder, exactly as a client of POST /v1/batchbin would.
func encodeBatch(enc *indep.BinBatchEncoder, ops []op) ([]byte, error) {
	enc.Reset()
	for _, o := range ops {
		var err error
		if o.del {
			err = enc.Delete(relNames[o.rel], o.row())
		} else {
			err = enc.Add(relNames[o.rel], o.row())
		}
		if err != nil {
			return nil, err
		}
	}
	return enc.Bytes(), nil
}

// Window classes, named by mechanism. local: X ⊆ {A,B,C,D}, only FACT can
// answer. join: X contains a dimension attribute, answered with extension
// joins from FACT.
const (
	classLocal = 0
	classJoin  = 1
)

// window is one entry of the window pool.
type window struct {
	class int
	q     indep.WindowQuery
	query string // the encoded query string of GET /v1/window
}

func newWindow(class int, attrs []string, whereAttr, whereVal string, limit int) window {
	w := window{class: class, q: indep.WindowQuery{Attrs: attrs, Limit: limit}}
	vals := url.Values{"attrs": {strings.Join(attrs, ",")}}
	if whereAttr != "" {
		w.q.Where = map[string]string{whereAttr: whereVal}
		vals.Set("where", whereAttr+"="+whereVal)
	}
	if limit > 0 {
		vals.Set("limit", strconv.Itoa(limit))
	}
	w.query = vals.Encode()
	return w
}

// poolRanks are the key ranks the pool's selections use, hot to cold. They
// are the same for every seed, so that two seeds ask windows of the same
// cost profile (a hot key returns hundreds of rows, a cold one a handful)
// and differ in the data and in the order of the requests only.
var poolRanks = [5]uint32{0, 3, 17, 90, 400}

// windowPool builds the window pool: 24 local windows and 8 join windows
// over 13 distinct attribute sets, few enough to stay in the plan cache.
func windowPool() [2][]window {
	var pool [2][]window
	fact := []string{"A", "B", "C", "D"}
	for _, attrs := range [][]string{fact, {"A", "B"}, {"C", "D"}, {"B", "C", "D"}} {
		pool[classLocal] = append(pool[classLocal], newWindow(classLocal, attrs, "", "", 100))
	}
	for k := 0; k < 4; k++ {
		for _, rank := range poolRanks {
			pool[classLocal] = append(pool[classLocal],
				newWindow(classLocal, fact, fact[k], keyName(k, rank), 0))
		}
	}
	for k := 0; k < 4; k++ {
		key := dimAttrs[k][0]
		// DIMk point lookup by key.
		pool[classJoin] = append(pool[classJoin],
			newWindow(classJoin, dimAttrs[k], key, keyName(k, poolRanks[1]), 0))
		// FACT ∪ two DIMk dependents, selected on the key.
		attrs := append(append([]string(nil), fact...), dimAttrs[k][1:3]...)
		pool[classJoin] = append(pool[classJoin],
			newWindow(classJoin, attrs, key, keyName(k, poolRanks[2]), 0))
	}
	return pool
}

// pickWindow is request i of a reader: every fifth window is a join
// window (20 % by count), the entry within the class is hashed from
// (seed, client, i).
func pickWindow(pool [2][]window, seed uint64, client, i int) window {
	class := classLocal
	if i%5 == 4 {
		class = classJoin
	}
	list := pool[class]
	return list[mix(mix(seed^uint64(client)<<32)^uint64(i))%uint64(len(list))]
}
