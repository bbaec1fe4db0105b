// Package dmpmodel composes per-flow TCP chains into the paper's analytical
// model of DMP-streaming (Section 4.2) and computes its performance metric,
// the fraction of late packets.
//
// The composed state is (X_1, ..., X_K, N): one tcpmodel.State per path plus
// the number of early packets N in the client buffer. N is the lead of
// arrivals over the playback schedule: flow transitions add their delivered
// packets to N (clipped at Nmax = µτ, the live-streaming constraint of
// Section 2.1, with flows frozen while N = Nmax), and packet consumption is a
// rate-µ event that decrements N. A consumption finding N ≤ 0 is a late
// packet; f = P(late | consumption).
//
// The paper solved this chain numerically with TANGRAM-II. Here the large
// parameter sweeps use an exact-dynamics Monte-Carlo estimator over the
// embedded jump chain (no discretization error; batch-means confidence
// intervals), and small truncated instances are solved exactly through
// markov.Stationary to cross-validate the estimator. See DESIGN.md §2.
package dmpmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"dmpstream/internal/markov"
	"dmpstream/internal/stats"
	"dmpstream/internal/tcpmodel"
)

// Model is a DMP-streaming instance: K paths feeding one playback process.
type Model struct {
	Paths []tcpmodel.Params
	Mu    float64 // playback rate, packets per second
}

// Validate checks the model's parameters. Each check is written so that
// NaN fails it.
func (m *Model) Validate() error {
	if len(m.Paths) == 0 {
		return fmt.Errorf("dmpmodel: no paths")
	}
	if !finitePositive(m.Mu) {
		return fmt.Errorf("dmpmodel: playback rate %v is not finite and > 0", m.Mu)
	}
	for i, p := range m.Paths {
		if _, err := Sigma(p); err != nil {
			return fmt.Errorf("dmpmodel: path %d: %w", i, err)
		}
	}
	return nil
}

// finitePositive reports whether x lies in (0, +Inf); NaN does not.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// AggregateThroughput returns σ_a = Σ σ_k from the exact per-flow solve.
func (m *Model) AggregateThroughput() (float64, error) {
	var total float64
	for _, p := range m.Paths {
		s, err := Sigma(p)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// Options tune the Monte-Carlo estimator.
type Options struct {
	Seed            int64
	MaxConsumptions int64 // sampling budget (default 2_000_000)
	Warmup          int64 // consumptions discarded before counting (default max(20_000, 20·Nmax); a τ past maxDefaultTau is refused)
	BatchSize       int64 // consumptions per batch for the CI (default 20_000)

	// FloorN, when non-nil, disables consumption at N = *FloorN. It exists to
	// match the truncated exact chain in cross-validation tests; production
	// estimates leave it nil (N is unbounded below).
	FloorN *int64
}

// maxDefaultWarmup bounds the default warm-up, reached at µτ = 5·10⁶: a few
// seconds of sampling (BenchmarkFractionLateJumpChain times a consumption).
// A µτ past it is refused rather than estimated from a shorter warm-up,
// which would start the chain's full buffer too close to the counted
// window; µ = 10¹² at τ = 1 s would otherwise ask for 2·10¹³ consumptions
// and never return. A startup-delay search stops at maxDefaultTau instead.
const maxDefaultWarmup = 100_000_000

// maxDefaultTau is the longest startup delay the default warm-up can pay at
// playback rate mu.
func maxDefaultTau(mu float64) float64 { return maxDefaultWarmup / 20 / mu }

func (o Options) withDefaults(nmax int64) Options {
	if o.MaxConsumptions == 0 {
		o.MaxConsumptions = 2_000_000
	}
	if o.Warmup == 0 {
		o.Warmup = 20 * nmax
		if o.Warmup < 20_000 {
			o.Warmup = 20_000
		}
	}
	if o.BatchSize == 0 {
		o.BatchSize = 20_000
	}
	return o
}

// Result is a fraction-late estimate with uncertainty.
type Result struct {
	F            float64 // point estimate of the fraction of late packets
	CI95         float64 // 95% half-width from batch means (0 if too few batches)
	Consumptions int64   // counted consumption events
	Late         int64   // late consumption events
	// PathShares is each path's fraction of the packets delivered to the
	// client buffer — the model-side view of DMP's dynamic allocation
	// (faster paths carry more).
	PathShares []float64
}

// flowTable is a memoized, indexed view of one path's chain for the tight
// sampling loop: states become dense int32 ids.
type flowTable struct {
	par    tcpmodel.Params
	index  map[tcpmodel.State]int32
	states []tcpmodel.State
	rows   []flowRow
}

type flowRow struct {
	total float64
	cum   []float64
	next  []int32
	s     []int32
}

func newFlowTable(par tcpmodel.Params) *flowTable {
	return &flowTable{par: par, index: make(map[tcpmodel.State]int32)}
}

func (ft *flowTable) id(s tcpmodel.State) int32 {
	if id, ok := ft.index[s]; ok {
		return id
	}
	id := int32(len(ft.states))
	ft.index[s] = id
	ft.states = append(ft.states, s)
	ft.rows = append(ft.rows, flowRow{}) // placeholder; filled lazily
	return id
}

func (ft *flowTable) row(id int32) *flowRow {
	if ft.rows[id].cum == nil {
		trs := tcpmodel.Transitions(ft.par, ft.states[id])
		nr := flowRow{
			cum:  make([]float64, len(trs)),
			next: make([]int32, len(trs)),
			s:    make([]int32, len(trs)),
		}
		for i, tr := range trs {
			nr.total += tr.Rate
			nr.cum[i] = nr.total
			nr.s[i] = tr.Tag
			// ft.id may append to ft.rows and reallocate its backing array,
			// so the row is built locally and stored only afterwards.
			nr.next[i] = ft.id(tr.Next)
		}
		ft.rows[id] = nr
	}
	return &ft.rows[id]
}

// nmaxFor converts a startup delay to the early-packet cap Nmax = µτ.
func (m *Model) nmaxFor(tau float64) int64 {
	n := int64(math.Round(m.Mu * tau))
	if n < 1 {
		n = 1
	}
	return n
}

// FractionLate estimates f for startup delay tau (seconds) by sampling the
// embedded jump chain of the composed CTMC.
func (m *Model) FractionLate(tau float64, o Options) (Result, error) {
	return m.fractionLate(tau, o, 0)
}

// fractionLate is FractionLate with an optional sequential stopping
// threshold: when thresh > 0, sampling stops early once the batch-means CI
// cleanly separates the estimate from thresh.
func (m *Model) fractionLate(tau float64, o Options, thresh float64) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if !finitePositive(tau) {
		return Result{}, fmt.Errorf("dmpmodel: startup delay %v is not finite and > 0", tau)
	}
	if o.Warmup == 0 && tau > maxDefaultTau(m.Mu) {
		return Result{}, fmt.Errorf("dmpmodel: µτ = %g needs a warm-up of %.3g consumptions, over the default's cap of %d",
			m.Mu*tau, 20*m.Mu*tau, int64(maxDefaultWarmup))
	}
	nmax := m.nmaxFor(tau)
	o = o.withDefaults(nmax)

	k := len(m.Paths)
	tables := make([]*flowTable, k)
	cur := make([]int32, k)
	for i, p := range m.Paths {
		tables[i] = newFlowTable(p)
		cur[i] = tables[i].id(tcpmodel.Initial(p))
	}
	rng := rand.New(rand.NewSource(o.Seed))

	n := nmax // start with a full buffer, the post-startup condition
	var consumed, late int64
	delivered := make([]int64, k)
	bm := stats.NewBatchMeans(o.BatchSize)

	rates := make([]float64, k)
	budget := o.Warmup + o.MaxConsumptions
	const checkEvery = 10 // batches between sequential checks

	for consumed < budget {
		total := m.Mu
		consumptionOn := o.FloorN == nil || n != *o.FloorN
		if !consumptionOn {
			total = 0
		}
		if n < nmax {
			for i := 0; i < k; i++ {
				r := tables[i].row(cur[i])
				rates[i] = r.total
				total += r.total
			}
		} else {
			for i := range rates {
				rates[i] = 0
			}
		}
		if total == 0 {
			return Result{}, fmt.Errorf("dmpmodel: deadlocked state (N=%d, floor active)", n)
		}
		u := rng.Float64() * total
		if consumptionOn && u < m.Mu {
			consumed++
			if consumed > o.Warmup {
				x := 0.0
				if n <= 0 {
					late++
					x = 1
				}
				bm.Add(x)
				if thresh > 0 && bm.Batches()%checkEvery == 0 && bm.Batches() > 0 &&
					(consumed-o.Warmup)%o.BatchSize == 0 && bm.Separated(thresh) {
					break
				}
			}
			n--
			continue
		}
		if consumptionOn {
			u -= m.Mu
		}
		for i := 0; i < k; i++ {
			if u < rates[i] {
				r := tables[i].row(cur[i])
				j := sampleCum(r.cum, u)
				room := nmax - n
				got := int64(r.s[j])
				if got > room {
					got = room // the cap froze part of the round
				}
				n += got
				delivered[i] += got
				cur[i] = r.next[j]
				break
			}
			u -= rates[i]
		}
	}

	counted := consumed - o.Warmup
	if counted <= 0 {
		return Result{}, fmt.Errorf("dmpmodel: budget %d consumed entirely by warmup", o.MaxConsumptions)
	}
	res := Result{Consumptions: counted, Late: late}
	res.F = float64(late) / float64(counted)
	_, res.CI95 = bm.Estimate()
	var totalDelivered int64
	for _, d := range delivered {
		totalDelivered += d
	}
	if totalDelivered > 0 {
		res.PathShares = make([]float64, k)
		for i, d := range delivered {
			res.PathShares[i] = float64(d) / float64(totalDelivered)
		}
	}
	return res, nil
}

// sampleCum returns the first index whose cumulative rate exceeds u.
func sampleCum(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Verdict is the outcome of a threshold comparison.
type Verdict int

// Comparison outcomes.
const (
	Below Verdict = iota // f is below the threshold
	Above                // f is at or above the threshold
)

// CompareToThreshold decides whether f(tau) < thresh, stopping early when the
// confidence interval separates. Ties at budget exhaustion go to the point
// estimate.
func (m *Model) CompareToThreshold(tau, thresh float64, o Options) (Verdict, Result, error) {
	res, err := m.fractionLate(tau, o, thresh)
	if err != nil {
		return Above, res, err
	}
	if res.F < thresh {
		return Below, res, nil
	}
	return Above, res, nil
}

// RequiredStartupDelay returns the smallest startup delay (on a grid of
// `step` seconds) for which the fraction of late packets is below thresh —
// the quantity plotted in the paper's Figs 9-11. It exploits that f is
// non-increasing in τ. Returns +Inf if even maxTau misses the threshold.
// Under the default warm-up the search stops at maxDefaultTau: a miss
// there is an error naming that delay, not +Inf.
func (m *Model) RequiredStartupDelay(thresh, step, maxTau float64, o Options) (float64, error) {
	return searchDelay(m.Mu, step, maxTau, o, func(tau float64) (bool, error) {
		v, _, err := m.CompareToThreshold(tau, thresh, o)
		return v == Below, err
	})
}

// searchDelay bisects the grid of step seconds up to maxTau for the
// smallest τ whose below(τ) holds, below being monotone in τ; mu sets how
// far the default warm-up reaches (see RequiredStartupDelay).
func searchDelay(mu, step, maxTau float64, o Options, below func(tau float64) (bool, error)) (float64, error) {
	if !finitePositive(step) || !(maxTau > step) || math.IsInf(maxTau, 1) {
		return 0, fmt.Errorf("dmpmodel: bad search grid step=%v maxTau=%v", step, maxTau)
	}
	top := maxTau
	if limit := maxDefaultTau(mu); o.Warmup == 0 && limit < maxTau {
		top = math.Floor(limit/step) * step
		if top > limit { // the product rounded up
			top -= step
		}
		if top < step {
			return 0, fmt.Errorf("dmpmodel: at µ = %g a %gs startup delay needs a warm-up over the default's cap of %d consumptions",
				mu, step, int64(maxDefaultWarmup))
		}
	}
	ok, err := below(top)
	if err != nil {
		return 0, err
	}
	if !ok {
		if top < maxTau {
			return 0, fmt.Errorf("dmpmodel: no startup delay up to %gs is enough, and at µ = %g a longer one needs a warm-up over the default's cap of %d consumptions",
				top, mu, int64(maxDefaultWarmup))
		}
		return math.Inf(1), nil
	}
	lo, hi := 0.0, top // below(lo) fails (vacuously), below(hi) holds
	for hi-lo > step+1e-9 {
		mid := math.Round((lo+hi)/2/step) * step
		if mid <= lo {
			mid = lo + step
		}
		if mid >= hi {
			mid = hi - step
		}
		ok, err := below(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// ---------- Transient analysis: finite videos, live vs stored ----------

// TransientResult summarizes replicated finite-video simulations of the
// model.
type TransientResult struct {
	F            float64 // mean fraction of late packets per replication
	CI95         float64 // across replications
	Replications int
}

// TransientFractionLate simulates finite videos of the given length through
// the model chain and returns the fraction of late packets, averaged over
// replications. Unlike FractionLate (the stationary quantity the paper
// reports), this resolves the whole session: the buffer starts empty,
// playback begins τ seconds after streaming starts, and the video ends
// after videoSeconds of content.
//
// stored selects stored-video streaming — the paper's "future work"
// extension: the entire video exists up front, so senders are never
// constrained by the live cap N ≤ µτ and can run arbitrarily far ahead.
// Live streaming keeps the cap. Comparing the two quantifies how much the
// liveness constraint itself costs.
func (m *Model) TransientFractionLate(tau, videoSeconds float64, stored bool, o Options) (TransientResult, error) {
	if err := m.Validate(); err != nil {
		return TransientResult{}, err
	}
	if !(0 < tau && tau < videoSeconds) || math.IsInf(videoSeconds, 1) {
		return TransientResult{}, fmt.Errorf("dmpmodel: need 0 < tau < videoSeconds, got %v, %v", tau, videoSeconds)
	}
	// At least three replications of µ·videoSeconds consumptions each run
	// whatever MaxConsumptions says; past the default warm-up's cap that
	// would not return.
	if n := 3 * m.Mu * videoSeconds; n > maxDefaultWarmup {
		return TransientResult{}, fmt.Errorf("dmpmodel: a %v s video at µ = %g needs %.3g consumptions (3 replications), over the cap of %d",
			videoSeconds, m.Mu, n, int64(maxDefaultWarmup))
	}
	nmax := m.nmaxFor(tau)
	o = o.withDefaults(nmax)
	perRep := int64(m.Mu * videoSeconds)
	if perRep < 1 {
		return TransientResult{}, fmt.Errorf("dmpmodel: video too short (%v s at %v pkts/s)", videoSeconds, m.Mu)
	}
	reps := int(o.MaxConsumptions / perRep)
	if reps < 3 {
		reps = 3
	}
	if reps > 500 {
		reps = 500
	}

	k := len(m.Paths)
	tables := make([]*flowTable, k)
	for i, p := range m.Paths {
		tables[i] = newFlowTable(p)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	rates := make([]float64, k)
	fs := make([]float64, 0, reps)

	for rep := 0; rep < reps; rep++ {
		cur := make([]int32, k)
		for i, p := range m.Paths {
			cur[i] = tables[i].id(tcpmodel.Initial(p))
		}
		var n, late, consumed int64
		t := 0.0
		for consumed < perRep {
			total := 0.0
			consuming := t >= tau
			if consuming {
				total += m.Mu
			}
			sending := stored || n < nmax
			if sending {
				for i := 0; i < k; i++ {
					r := tables[i].row(cur[i])
					rates[i] = r.total
					total += r.total
				}
			} else {
				for i := range rates {
					rates[i] = 0
				}
			}
			if total == 0 {
				// Buffer full before playback started: nothing can happen
				// until the startup delay elapses.
				t = tau
				continue
			}
			t += rng.ExpFloat64() / total
			u := rng.Float64() * total
			if consuming && u < m.Mu {
				consumed++
				if n <= 0 {
					late++
				}
				n--
				continue
			}
			if consuming {
				u -= m.Mu
			}
			for i := 0; i < k; i++ {
				if u < rates[i] {
					r := tables[i].row(cur[i])
					j := sampleCum(r.cum, u)
					n += int64(r.s[j])
					if !stored && n > nmax {
						n = nmax
					}
					cur[i] = r.next[j]
					break
				}
				u -= rates[i]
			}
		}
		fs = append(fs, float64(late)/float64(perRep))
	}
	mean, ci := stats.MeanCI95(fs)
	return TransientResult{F: mean, CI95: ci, Replications: reps}, nil
}

// ---------- Exact solution on truncated instances ----------

// Composite is the composed chain state for K=2 paths, used by the exact
// cross-validation solver.
type Composite struct {
	F1, F2 tcpmodel.State
	N      int32
}

// ExactGenerator builds the composed CTMC over two paths with early-packet
// cap nmax and truncation floor floorN (consumption disabled at the floor).
// Tags: consumption transitions carry -1; flow transitions carry the
// delivered-packet count. With floorN = nmax nothing is ever consumed (N
// never exceeds the cap), which is the chain before playback starts: flows
// fill the buffer toward the cap, as markov.TransientSolver needs for the
// exact distribution at playback start (t = τ).
func ExactGenerator(p1, p2 tcpmodel.Params, mu float64, nmax, floorN int32) markov.Generator[Composite] {
	g1 := tcpmodel.Generator(p1)
	g2 := tcpmodel.Generator(p2)
	return func(c Composite) []markov.Transition[Composite] {
		var out []markov.Transition[Composite]
		if c.N > floorN {
			out = append(out, markov.Transition[Composite]{
				Rate: mu, Tag: -1,
				Next: Composite{F1: c.F1, F2: c.F2, N: c.N - 1},
			})
		}
		if c.N < nmax {
			for _, tr := range g1(c.F1) {
				n := c.N + tr.Tag
				if n > nmax {
					n = nmax
				}
				out = append(out, markov.Transition[Composite]{
					Rate: tr.Rate, Tag: tr.Tag,
					Next: Composite{F1: tr.Next, F2: c.F2, N: n},
				})
			}
			for _, tr := range g2(c.F2) {
				n := c.N + tr.Tag
				if n > nmax {
					n = nmax
				}
				out = append(out, markov.Transition[Composite]{
					Rate: tr.Rate, Tag: tr.Tag,
					Next: Composite{F1: c.F1, F2: tr.Next, N: n},
				})
			}
		}
		return out
	}
}

// ExactFractionLate solves the truncated composed chain exactly and returns
// f = P(N ≤ 0 | consumption). Feasible only for small Wmax and N ranges; used
// to validate the Monte-Carlo estimator.
func ExactFractionLate(p1, p2 tcpmodel.Params, mu float64, nmax, floorN int32, maxStates int) (float64, error) {
	g := ExactGenerator(p1, p2, mu, nmax, floorN)
	init := Composite{F1: tcpmodel.Initial(p1), F2: tcpmodel.Initial(p2), N: nmax}
	pi, err := markov.Stationary(g, init, maxStates, 1e-11, 500000)
	if err != nil {
		return 0, err
	}
	// Collect the masses and reduce them in sorted order: float addition is
	// not associative, so accumulating in map-iteration order would perturb
	// the result in the last ulps from run to run.
	var lateTerms, consumeTerms []float64
	// nolint:detsim the terms are sorted before the reduction below, so the
	// result is independent of map iteration order.
	for s, p := range pi {
		if s.N > floorN { // consumption enabled
			consumeTerms = append(consumeTerms, p)
			if s.N <= 0 {
				lateTerms = append(lateTerms, p)
			}
		}
	}
	sort.Float64s(lateTerms)
	sort.Float64s(consumeTerms)
	var lateMass, consumeMass float64
	for _, v := range lateTerms {
		lateMass += v
	}
	for _, v := range consumeTerms {
		consumeMass += v
	}
	if consumeMass == 0 {
		return 0, fmt.Errorf("dmpmodel: no consumption-enabled mass")
	}
	return lateMass / consumeMass, nil
}

// ---------- σ̂ cache and parameter construction ----------

var sigmaCache sync.Map // tcpmodel.Params (R normalized to 1) -> float64

// Sigma returns the achievable throughput σ(par), using the R-scaling
// σ = σ̂(p, T_O, Wmax)/R and caching σ̂.
func Sigma(par tcpmodel.Params) (float64, error) {
	// σ̂ is solved at R = 1, so R is checked here.
	if !finitePositive(par.R) {
		return 0, fmt.Errorf("dmpmodel: RTT %v is not finite and > 0", par.R)
	}
	key := par
	key.R = 1
	if v, ok := sigmaCache.Load(key); ok {
		return v.(float64) / par.R, nil
	}
	hat, err := tcpmodel.Throughput(key)
	if err != nil {
		return 0, err
	}
	sigmaCache.Store(key, hat)
	return hat / par.R, nil
}

// RForRatio returns the RTT making K homogeneous paths with loss p and
// timeout ratio to achieve σ_a/µ = ratio (the paper's Fig 8/9a sweep, which
// fixes p, T_O, µ and varies R).
func RForRatio(p, to float64, wmax int, mu, ratio float64, k int) (tcpmodel.Params, error) {
	base := tcpmodel.Params{P: p, R: 1, TO: to, Wmax: wmax}
	hat, err := Sigma(base)
	if err != nil {
		return tcpmodel.Params{}, err
	}
	// σ_a = K·σ̂/R = ratio·µ  ⇒  R = K·σ̂/(ratio·µ).
	base.R = float64(k) * hat / (ratio * mu)
	return base, nil
}

// MuForRatio returns the playback rate making K homogeneous paths (p, R, to)
// achieve σ_a/µ = ratio (the paper's Fig 9b sweep, which fixes R and varies µ).
func MuForRatio(p, r, to float64, wmax int, ratio float64, k int) (float64, tcpmodel.Params, error) {
	par := tcpmodel.Params{P: p, R: r, TO: to, Wmax: wmax}
	sigma, err := Sigma(par)
	if err != nil {
		return 0, tcpmodel.Params{}, err
	}
	return float64(k) * sigma / ratio, par, nil
}

// Case1RTTHetero builds the paper's Case-1 heterogeneous paths (Section 7.2):
// same loss and timeout ratio, RTTs split as R1 = γR°, R2 = R°/(2-1/γ), which
// preserves the aggregate achievable throughput of two homogeneous paths.
func Case1RTTHetero(homo tcpmodel.Params, gamma float64) [2]tcpmodel.Params {
	p1, p2 := homo, homo
	p1.R = gamma * homo.R
	p2.R = homo.R / (2 - 1/gamma)
	return [2]tcpmodel.Params{p1, p2}
}

// Case2LossHetero builds the paper's Case-2 heterogeneous paths: same RTT and
// timeout ratio, p1 = γp°, and p2 chosen so the aggregate achievable
// throughput matches two homogeneous paths. The paper inverts the PFTK
// formula; we invert the model's own chain for self-consistency.
func Case2LossHetero(homo tcpmodel.Params, gamma float64) ([2]tcpmodel.Params, error) {
	sigmaO, err := Sigma(homo)
	if err != nil {
		return [2]tcpmodel.Params{}, err
	}
	p1 := homo
	p1.P = gamma * homo.P
	sigma1, err := Sigma(p1)
	if err != nil {
		return [2]tcpmodel.Params{}, err
	}
	target := 2*sigmaO - sigma1
	p2loss, err := tcpmodel.LossForThroughput(target, homo.R, homo.TO, homo.Wmax)
	if err != nil {
		return [2]tcpmodel.Params{}, fmt.Errorf("dmpmodel: case-2 inversion: %w", err)
	}
	p2 := homo
	p2.P = p2loss
	return [2]tcpmodel.Params{p1, p2}, nil
}

// ---------- Static streaming (Section 7.4) ----------

// StaticFractionLate evaluates the paper's static comparison scheme: packets
// are split across paths in fixed proportion to the paths' average
// throughputs, so each path becomes an independent single-path TCP stream
// carrying a w_k·µ sub-video with its own µ_k·τ buffer cap. f is the
// throughput-weighted average of the per-path late fractions.
func StaticFractionLate(paths []tcpmodel.Params, mu, tau float64, o Options) (Result, error) {
	sigmas := make([]float64, len(paths))
	var total float64
	for i, p := range paths {
		s, err := Sigma(p)
		if err != nil {
			return Result{}, err
		}
		sigmas[i] = s
		total += s
	}
	var agg Result
	for i, p := range paths {
		w := sigmas[i] / total
		sub := Model{Paths: []tcpmodel.Params{p}, Mu: w * mu}
		oi := o
		oi.Seed = o.Seed + int64(i)*7919
		res, err := sub.FractionLate(tau, oi)
		if err != nil {
			return Result{}, err
		}
		agg.F += w * res.F
		agg.CI95 += w * res.CI95
		agg.Consumptions += res.Consumptions
		agg.Late += res.Late
	}
	return agg, nil
}

// StaticRequiredStartupDelay is RequiredStartupDelay for the static scheme.
func StaticRequiredStartupDelay(paths []tcpmodel.Params, mu, thresh, step, maxTau float64, o Options) (float64, error) {
	return searchDelay(mu, step, maxTau, o, func(tau float64) (bool, error) {
		res, err := StaticFractionLate(paths, mu, tau, o)
		return res.F < thresh, err
	})
}
