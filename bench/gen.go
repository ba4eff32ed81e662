package main

// Deterministic workload generation: workload → dataset CSV; (workload,
// seed) → a pool of pre-rendered weight sets and one op list per client. Nothing here
// reads a clock or the server; two invocations with one seed produce
// byte-identical op lists (TestOpListsAreDeterministic).

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"

	"wqrtq/internal/dataset"
	"wqrtq/internal/rtree"
	"wqrtq/internal/sample"
	"wqrtq/internal/topk"
	"wqrtq/internal/vec"
)

const (
	warmupOps = 8
	queryK    = 10
	// Table-1 defaults of the paper for why-not instances.
	whyNotRank = 101
	whyNotWm   = 1
	// verifyReads is how many reads the durable workload re-issues after
	// the kill/restart.
	verifyReads = 50
)

// spec describes one workload. The sizes are the full-scale ones; toy()
// shrinks them for the smoke test.
type spec struct {
	Name string
	Why  string
	Dist string // "un" (uniform, D dims) or "nba" (dataset.NBALike, 13 dims)
	N, D int
	// WhyNot selects /v1/whynot ops; otherwise ops are /v1/rtopk.
	WhyNot  bool
	Samples int // "samples" of a why-not request (|S| = |Q|)
	// Instances is how many why-not questions are synthesized; the ops draw
	// from them, each with a sampling seed of its own, so every request is
	// unique and no refinement is served from the cache, while generation
	// (17 ms per question at n = 100 000) stays affordable.
	Instances int
	// NW weights per rtopk request, drawn as one of Pool pre-rendered sets.
	NW, Pool int
	// SynthFrac of the rtopk query points are synthesized at rank <= k
	// under one of the request's own vectors (non-empty result, the
	// expensive case); the rest are random data points (mostly empty).
	SynthFrac float64
	// HotFrac of the rtopk ops repeat one of Hot fixed requests.
	HotFrac float64
	Hot     int
	// MutEvery > 0 makes every MutEvery-th op of a client a mutation,
	// alternating insert and delete.
	MutEvery int
	// Durable serves with -data-dir and -fsync always, and ends with a
	// SIGKILL + restart check.
	Durable bool
	// Clients is the number of closed-loop callers, each with a keep-alive
	// connection and an op list of its own. It is fixed per workload, not
	// derived from the machine. One is the default: this box presents two
	// vCPUs with the capacity of one (two spinning threads take twice as
	// long as one), and with two busy callers every number depended on how
	// the host sliced them — spreads of 12-50% against 2-8% with one. Only
	// the mixed workload, whose point is writes beside reads and whose
	// rebuild-per-mutation serializes the server anyway, keeps two.
	Clients int
	// Ops is the length of each client's list: an upper bound on what one
	// client can finish in the measured window, not a target.
	Ops int
}

var workloads = []spec{
	{
		Name: "rtopk_cell_un3",
		Why:  "d=3 reverse top-k with 1000 weights, 30% repeats of 64 hot requests: cellindex+kernel+skyband path, ~60KB bodies, working set larger than the result cache",
		Dist: "un", N: 100000, D: 3, NW: 1000, Pool: 64, SynthFrac: 0.5, HotFrac: 0.3, Hot: 64, Clients: 1, Ops: 16000,
	},
	{
		Name: "rtopk_band_nba13",
		Why:  "d=13 reverse top-k, all unique, 30% expensive: skips cellindex and the kernel gate (d above 4), so time is band R-tree + RTA pruning + topk; an optimisation of the d-up-to-4 path must not move it",
		Dist: "nba", N: 17265, D: 13, NW: 1000, Pool: 32, SynthFrac: 0.3, Clients: 1, Ops: 4000,
	},
	{
		Name: "whynot_un3",
		Why:  "the paper's headline operation on Table-1 instances (k=10, rank 101, |Wm|=1), all unique: over 90% MQWK sampling and kernel sweeps, ~0% HTTP/cellindex; mirror image of rtopk_cell_un3",
		Dist: "un", N: 100000, D: 3, WhyNot: true, Samples: 24, Instances: 256, Clients: 1, Ops: 1500,
	},
	{
		Name: "mixed_un3_wal",
		Why:  "rtopk_cell_un3's unique stream with 10% insert/delete under -fsync always: clone, WAL append+fsync, band/grid invalidation per mutation; ends with SIGKILL and recovery check",
		Dist: "un", N: 100000, D: 3, NW: 1000, Pool: 64, SynthFrac: 0.5, MutEvery: 10, Durable: true, Clients: 2, Ops: 4000,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// toy shrinks a workload to smoke-test size; the code path is unchanged.
func (s spec) toy() spec {
	s.N = 2000
	s.Ops = 20
	if s.NW > 0 {
		s.NW = 50
		s.Pool = 4
	}
	if s.Hot > 0 {
		s.Hot = 4
	}
	if s.WhyNot {
		s.Samples = 16
		s.Instances = 8
	}
	if s.MutEvery > 0 {
		s.MutEvery = 4
	}
	return s
}

type opKind uint8

const (
	opRTopK opKind = iota
	opWhyNot
	opInsert
	opDelete
)

var opNames = [...]string{"rtopk", "whynot", "insert", "delete"}

func (k opKind) String() string               { return opNames[k] }
func (k opKind) isMutation() bool             { return k == opInsert || k == opDelete }
func (k opKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// op is one request. A delete carries no id: the client deletes the oldest
// id its own inserts were assigned, which only the server knows.
type op struct {
	Kind    opKind      `json:"kind"`
	Q       []float64   `json:"q,omitempty"`
	WSet    int         `json:"wset"` // rtopk: index into plan.pool
	Wm      [][]float64 `json:"wm,omitempty"`
	Samples int         `json:"samples,omitempty"`
	Seed    int64       `json:"seed,omitempty"`
	Point   []float64   `json:"point,omitempty"`
	Hot     bool        `json:"hot,omitempty"`
}

// weightSet is one pre-rendered "weights" value. Request bodies splice the
// rendered JSON in, so a 60 KB body costs a copy, not an encode, inside
// the timed loop, and 16 000 ops do not hold 1 GB of bodies.
type weightSet struct {
	W    []vec.Weight
	JSON []byte
	SHA  string
}

// plan is everything a run needs, derived from (spec, seed) alone.
type plan struct {
	spec    spec
	seed    int64
	ds      *dataset.Dataset
	tree    *rtree.Tree
	pool    []weightSet
	whynots []op // the synthesized why-not questions (Q and Wm only)
	warm    []op
	clients [][]op
	verify  []op // durable workload: reads re-issued after the restart
}

// stream derives an independent rng for a named purpose, so adding a
// stream never shifts the draws of another.
func stream(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// dataSeed fixes each workload's data: the points P, the preference pool W
// (in the bichromatic problem a dataset too) and the why-not questions
// synthesized from P. The seed of a run draws the requests over them, not
// the data: the paper's NBA and Household are single datasets as well, and
// how hard a draw of the data is would add its own spread to every metric
// (with data drawn per seed, ops_per_s on rtopk_band_nba13 spread 47% over
// ten seeds, against 7% for one seed repeated).
const dataSeed = 1

// rawPoints is the dataset as the public wqrtq API takes it.
func rawPoints(ds *dataset.Dataset) [][]float64 {
	raw := make([][]float64, len(ds.Points))
	for i, pt := range ds.Points {
		raw[i] = pt
	}
	return raw
}

func makeDataset(s spec) *dataset.Dataset {
	if s.Dist == "nba" {
		return dataset.NBALike(s.N, dataSeed)
	}
	return dataset.Independent(s.N, s.D, dataSeed)
}

func makePlan(s spec, seed int64) (*plan, error) {
	p := &plan{spec: s, seed: seed, ds: makeDataset(s)}
	p.tree = p.ds.Tree()
	if s.NW > 0 {
		rng := stream(dataSeed, "pool")
		p.pool = make([]weightSet, s.Pool)
		for i := range p.pool {
			p.pool[i] = makeWeightSet(rng, s.NW, p.ds.Dim)
		}
	}
	if s.WhyNot {
		if err := p.makeWhyNots(s.Instances); err != nil {
			return nil, err
		}
	}
	var hot []op
	if s.Hot > 0 {
		rng := stream(seed, "hot")
		hot = make([]op, s.Hot)
		for i := range hot {
			hot[i] = p.rtopkOp(rng)
			hot[i].Hot = true
		}
	}
	p.warm = p.opList(stream(seed, "warm"), warmupOps, nil, 0)
	p.clients = make([][]op, s.Clients)
	for c := range p.clients {
		p.clients[c] = p.opList(stream(seed, fmt.Sprintf("client/%d", c)), s.Ops, hot, s.MutEvery)
	}
	if s.Durable {
		rng := stream(seed, "verify")
		p.verify = make([]op, verifyReads)
		for i := range p.verify {
			p.verify[i] = p.rtopkOp(rng)
		}
	}
	return p, nil
}

func makeWeightSet(rng *rand.Rand, n, d int) weightSet {
	ws := weightSet{W: make([]vec.Weight, n)}
	buf := []byte{'['}
	for i := range ws.W {
		ws.W[i] = sample.RandSimplex(rng, d)
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendFloats(buf, ws.W[i])
	}
	ws.JSON = append(buf, ']')
	sum := sha256.Sum256(ws.JSON)
	ws.SHA = hex.EncodeToString(sum[:8])
	return ws
}

// opList draws n ops. Why-not ops walk a shuffle of the questions round
// and round, so two runs of any length put the same mix of easy and hard
// questions behind their percentiles.
func (p *plan) opList(rng *rand.Rand, n int, hot []op, mutEvery int) []op {
	ops := make([]op, n)
	order := rng.Perm(len(p.whynots))
	muts := 0
	for i := range ops {
		switch {
		case p.spec.WhyNot:
			ops[i] = p.whynots[order[i%len(order)]]
			ops[i].Seed = 1 + rng.Int63n(1<<40)
		case mutEvery > 0 && i%mutEvery == mutEvery-1:
			if muts%2 == 0 {
				pt := make([]float64, p.ds.Dim)
				for j := range pt {
					pt[j] = rng.Float64()
				}
				ops[i] = op{Kind: opInsert, Point: pt}
			} else {
				ops[i] = op{Kind: opDelete}
			}
			muts++
		case len(hot) > 0 && rng.Float64() < p.spec.HotFrac:
			ops[i] = hot[rng.Intn(len(hot))]
		default:
			ops[i] = p.rtopkOp(rng)
		}
	}
	return ops
}

// rtopkOp draws one reverse top-k request: a weight set from the pool and a
// query point, synthesized with probability SynthFrac.
func (p *plan) rtopkOp(rng *rand.Rand) op {
	o := op{Kind: opRTopK, WSet: rng.Intn(len(p.pool))}
	if rng.Float64() >= p.spec.SynthFrac {
		o.Q = vec.Clone(p.ds.Points[rng.Intn(len(p.ds.Points))])
		return o
	}
	ws := p.pool[o.WSet].W
	top := topk.TopK(p.tree, ws[rng.Intn(len(ws))], queryK)
	o.Q = vec.Clone(top[rng.Intn(len(top))].Point)
	for i := range o.Q {
		o.Q[i] *= 1 - 1e-9
	}
	return o
}

// makeWhyNots synthesizes n why-not questions, a fixed query set like the
// preference pool (questions differ 3x in cost); a run's seed draws their
// order and each request's sampling seed. They come only from
// dataset.MakeWhyNot: a uniformly random q sits at rank ~n·vol under a
// random vector and its refinement runs past the server's 30 s deadline.
// A question MakeWhyNot cannot build is redrawn from the next seed.
func (p *plan) makeWhyNots(n int) error {
	rng := stream(dataSeed, "whynot")
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63n(1 << 40)
	}
	p.whynots = make([]op, n)
	errs := make([]error, n)
	parallelFor(n, func(i int) {
		var wl dataset.Workload
		for try := int64(0); try < 16; try++ {
			if wl, errs[i] = dataset.MakeWhyNot(p.ds, queryK, whyNotRank, whyNotWm, seeds[i]+try); errs[i] == nil {
				break
			}
		}
		wm := make([][]float64, len(wl.Wm))
		for j, w := range wl.Wm {
			wm[j] = w
		}
		p.whynots[i] = op{Kind: opWhyNot, Q: wl.Q, Wm: wm, Samples: p.spec.Samples}
	})
	return errors.Join(errs...)
}

func appendFloats(b []byte, v []float64) []byte {
	b = append(b, '[')
	for i, f := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	return append(b, ']')
}

// body renders o's request into buf[:0]. delID is the id a delete removes.
func (p *plan) body(o *op, buf []byte, delID int) []byte {
	b := buf[:0]
	switch o.Kind {
	case opRTopK:
		b = append(b, `{"q":`...)
		b = appendFloats(b, o.Q)
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, queryK, 10)
		b = append(b, `,"weights":`...)
		b = append(b, p.pool[o.WSet].JSON...)
	case opWhyNot:
		b = append(b, `{"q":`...)
		b = appendFloats(b, o.Q)
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, queryK, 10)
		b = append(b, `,"weights":[`...)
		for i, w := range o.Wm {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendFloats(b, w)
		}
		b = append(b, `],"samples":`...)
		b = strconv.AppendInt(b, int64(o.Samples), 10)
		b = append(b, `,"seed":`...)
		b = strconv.AppendInt(b, o.Seed, 10)
	case opInsert:
		b = append(b, `{"point":`...)
		b = appendFloats(b, o.Point)
	case opDelete:
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(delID), 10)
	}
	return append(b, '}')
}

// write stores the inputs in dir for inspection: the CSV the server loads
// and ops.jsonl, whose first line names the weight sets by digest and
// whose other lines are the ops in (list, index) order.
func (p *plan) write(dir string) (csvPath string, err error) {
	csvPath = filepath.Join(dir, "data.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		return "", err
	}
	if err := p.ds.WriteCSV(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	f, err = os.Create(filepath.Join(dir, "ops.jsonl"))
	if err != nil {
		return "", err
	}
	if err := p.writeOps(f); err != nil {
		f.Close()
		return "", err
	}
	return csvPath, f.Close()
}

func (p *plan) writeOps(f *os.File) error {
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	shas := make([]string, len(p.pool))
	for i, ws := range p.pool {
		shas[i] = ws.SHA
	}
	if err := enc.Encode(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		WSets    []string `json:"wsets_sha256"`
	}{p.spec.Name, p.seed, shas}); err != nil {
		return err
	}
	lists := map[string][]op{"warm": p.warm, "verify": p.verify}
	names := []string{"warm", "verify"}
	for c, l := range p.clients {
		name := fmt.Sprintf("client%d", c)
		lists[name] = l
		names = append(names, name)
	}
	for _, name := range names {
		for i, o := range lists[name] {
			if err := enc.Encode(struct {
				List string `json:"list"`
				I    int    `json:"i"`
				op
			}{name, i, o}); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}
