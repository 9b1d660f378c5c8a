package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"chipletqc/internal/campaign"
	"chipletqc/internal/daemon"
	"chipletqc/internal/experiment"
	"chipletqc/internal/scenario"
	"chipletqc/internal/store"
)

// Per client round: one cold plan, warmJobs resubmissions of earlier
// plans, and artifactFetches store reads. The daemon keeps every job's
// report in memory for its lifetime, so the process grows with every
// job; daemon.retained_kib_per_job and process.peak_rss_mb show by how
// much.
const (
	warmJobs        = 8
	artifactFetches = 20
)

// servicePlan is the campaign-service's cold plan: the quick-scale
// cross product of the cheap registry experiments with the four paper
// device worlds, 28 cells.
func servicePlan(seed int64) campaign.Plan {
	return campaign.Plan{
		Experiments: []string{"fig1", "fig2", "fig3b", "fig6", "fig7", "eq1", "genyield"},
		Scenarios: []string{scenario.PaperName, scenario.FutureFabName,
			scenario.ImprovedLinksName, scenario.RelaxedThresholdsName},
		Seed:  seed,
		Quick: true,
	}
}

// probePlan is the small plan the daemon probe of the other workloads
// submits.
func probePlan(seed int64) campaign.Plan {
	return campaign.Plan{Experiments: []string{"fig2", "eq1"}, Scenarios: []string{scenario.PaperName}, Seed: seed, Quick: true}
}

// serviceStats collects what the daemon's clients observed, for the
// per-layer daemon, campaign and store metrics.
type serviceStats struct {
	mu                       sync.Mutex
	cold, warm, fetch        []float64 // client latency, ms
	submit, queueWait, httpO []float64 // ms
	run                      []float64 // cold jobs' campaign wall time, ms
	cached, cells            int
	artifacts                []experiment.Artifact // a sample for the store probe
}

func (s *serviceStats) addJob(cold bool, total, submit time.Duration, st daemon.JobStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cold {
		s.cold = append(s.cold, ms(total))
		s.run = append(s.run, st.WallSeconds*1000)
	} else {
		s.warm = append(s.warm, ms(total))
	}
	s.submit = append(s.submit, ms(submit))
	s.queueWait = append(s.queueWait, ms(st.StartedAt.Sub(st.SubmittedAt)))
	s.httpO = append(s.httpO, ms(total-st.FinishedAt.Sub(st.SubmittedAt)))
	s.cached += st.Cached
	s.cells += st.GridSize
}

func (s *serviceStats) addFetch(d time.Duration, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetch = append(s.fetch, ms(d))
	if len(s.artifacts) < 16 {
		var a experiment.Artifact
		if json.Unmarshal(body, &a) == nil {
			s.artifacts = append(s.artifacts, a)
		}
	}
}

// campaignService is an in-process daemon over a fresh filesystem
// store, served on loopback, driven by closed-loop HTTP clients that
// start each round together.
type campaignService struct {
	e       env
	plan    func(seed int64) campaign.Plan
	clients int
	dir     string
	st      *store.FS
	cancel  context.CancelFunc
	served  chan error
	http    *http.Client
	client  *daemon.Client
	rounds  int // rounds run so far; numbers each round's cold plans

	mu     sync.Mutex
	plans  []campaign.Plan
	keys   []string            // artifact URL paths
	bodies map[string][32]byte // digest of each key's first fetch
	stats  *serviceStats
}

func newCampaignService(ctx context.Context, e env) (workload, error) {
	return startService(e, servicePlan, clientCount())
}

// clientCount is the closed loop's client count: 2, or fewer on a
// machine with fewer CPUs, so load never uses more threads or
// connections than there are CPUs.
func clientCount() int {
	return min(2, runtime.NumCPU())
}

func startService(e env, plan func(int64) campaign.Plan, clients int) (*campaignService, error) {
	dir, err := os.MkdirTemp(e.dir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	srv := daemon.New(daemon.Options{Store: st, Slots: daemon.DefaultSlots})
	sctx, cancel := context.WithCancel(context.Background())
	s := &campaignService{
		e: e, plan: plan, clients: clients, dir: dir, st: st, cancel: cancel,
		served: make(chan error, 1),
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		bodies: map[string][32]byte{},
		stats:  &serviceStats{},
	}
	go func() { s.served <- srv.Serve(sctx, l) }()
	s.client = daemon.NewClient(l.Addr().String())
	s.client.HTTPClient = s.http
	return s, nil
}

// close drains the daemon, waits for it to stop serving, and removes
// the store.
func (s *campaignService) close() error {
	s.cancel()
	err := <-s.served
	s.http.CloseIdleConnections()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// job submits a plan, watches it to its terminal status and checks the
// outcome: a cold plan executes every cell, a warm one serves every
// cell from the store.
func (s *campaignService) job(ctx context.Context, plan campaign.Plan, cold bool) (daemon.JobStatus, time.Duration, error) {
	t := time.Now()
	js, err := s.client.Submit(ctx, plan, false)
	if err != nil {
		return daemon.JobStatus{}, time.Since(t), err
	}
	submitted := time.Since(t)
	fin, err := s.client.Watch(ctx, js.ID, nil)
	total := time.Since(t)
	if err != nil {
		return fin, total, err
	}
	executed, cached := 0, fin.GridSize
	if cold {
		executed, cached = fin.GridSize, 0
	}
	if fin.State != daemon.StateDone || fin.GridSize == 0 || fin.Executed != executed || fin.Cached != cached {
		return fin, total, fmt.Errorf("job %s: state %s, executed %d, cached %d of %d cells (cold %t)",
			fin.ID, fin.State, fin.Executed, fin.Cached, fin.GridSize, cold)
	}
	s.stats.addJob(cold, total, submitted, fin)
	return fin, total, nil
}

// fetch reads one stored artifact over HTTP and checks that its bytes
// equal the first fetch of the same key: warm jobs must leave the cold
// job's records byte-identical.
func (s *campaignService) fetch(ctx context.Context, key string) ([]byte, time.Duration, error) {
	t := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.client.BaseURL()+key, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, time.Since(t), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t)
	if err != nil {
		return nil, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, d, fmt.Errorf("fetch %s: HTTP %d", key, resp.StatusCode)
	}
	sum := sha256.Sum256(body)
	s.mu.Lock()
	first, seen := s.bodies[key]
	if !seen {
		s.bodies[key] = sum
	}
	s.mu.Unlock()
	if seen && first != sum {
		return nil, d, fmt.Errorf("fetch %s: bytes differ from the first fetch", key)
	}
	s.stats.addFetch(d, body)
	return body, d, nil
}

// remember adds a completed cold plan and its artifact keys to the pool
// later warm jobs and fetches draw from.
func (s *campaignService) remember(plan campaign.Plan, fin daemon.JobStatus) []string {
	keys := make([]string, 0, len(fin.Cells))
	for _, c := range fin.Cells {
		keys = append(keys, "/v1/artifacts/"+c.Experiment+"/"+c.Fingerprint)
	}
	s.mu.Lock()
	s.plans = append(s.plans, plan)
	s.keys = append(s.keys, keys...)
	s.mu.Unlock()
	return keys
}

func (s *campaignService) pick(rng *rand.Rand) (campaign.Plan, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plans[rng.Intn(len(s.plans))], s.keys[rng.Intn(len(s.keys))]
}

// reference runs the reference plan cold, digests its artifacts' text
// renderings, resubmits it warm and re-fetches every artifact.
func (s *campaignService) reference(ctx context.Context) (string, error) {
	plan := s.plan(goldenSeed)
	fin, _, err := s.job(ctx, plan, true)
	if err != nil {
		return "", err
	}
	keys := s.remember(plan, fin)
	h := sha256.New()
	for _, k := range keys {
		body, _, err := s.fetch(ctx, k)
		if err != nil {
			return "", err
		}
		var a experiment.Artifact
		if err := json.Unmarshal(body, &a); err != nil {
			return "", fmt.Errorf("fetch %s: %w", k, err)
		}
		io.WriteString(h, a.String())
	}
	if _, _, err := s.job(ctx, plan, false); err != nil {
		return "", err
	}
	for _, k := range keys {
		if _, _, err := s.fetch(ctx, k); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// round runs one round of every client concurrently and waits for all
// of them. The warm jobs and fetches follow the inputs r, but every
// round's cold plans take new seeds, so a traced round that repeats an
// untraced round's inputs still submits plans the store has not seen.
func (s *campaignService) round(ctx context.Context, r int, tr *tracer, parent int) []op {
	cold := s.rounds
	s.rounds++
	per := make([][]op, s.clients)
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[c] = s.clientRound(ctx, unitSeed(s.e.seed, cold, c), unitSeed(s.e.seed, r, c), tr, parent)
		}()
	}
	wg.Wait()
	var ops []op
	for _, o := range per {
		ops = append(ops, o...)
	}
	return ops
}

// clientRound is one client's share of a round: a cold job of the plan
// with planSeed, then warm resubmissions and fetches drawn, with
// pickSeed, from everything completed so far.
func (s *campaignService) clientRound(ctx context.Context, planSeed, pickSeed int64, tr *tracer, parent int) []op {
	rng := rand.New(rand.NewSource(pickSeed))
	ops := make([]op, 0, 1+warmJobs+artifactFetches)
	plan := s.plan(planSeed)
	_, end := tr.begin(parent, "daemon", "cold-job")
	fin, d, err := s.job(ctx, plan, true)
	end()
	ops = append(ops, op{dur: d, work: 1, err: err})
	if err == nil {
		s.remember(plan, fin)
	}
	for i := 0; i < warmJobs; i++ {
		p, _ := s.pick(rng)
		_, end := tr.begin(parent, "daemon", "warm-job")
		_, d, err := s.job(ctx, p, false)
		end()
		ops = append(ops, op{dur: d, work: 1, err: err})
	}
	for i := 0; i < artifactFetches; i++ {
		_, k := s.pick(rng)
		_, end := tr.begin(parent, "daemon", "fetch")
		_, d, err := s.fetch(ctx, k)
		end()
		ops = append(ops, op{dur: d, work: 1, err: err})
	}
	return ops
}

func (s *campaignService) inputs() layerInputs {
	in := defaultInputs(s.e)
	in.plan = s.plan(in.seed)
	in.service = s.stats
	return in
}

// daemonProbe drives a fresh daemon through one client round of a fixed
// plan. It returns the round's stats, for the workloads that have no
// daemon traffic of their own, and the live heap the daemon held at the
// end of the round per completed job, in KiB: the heap just before the
// daemon stops, less the heap once it has stopped and been collected.
func daemonProbe(ctx context.Context, e env, plan campaign.Plan, tr *tracer, parent int) (*serviceStats, float64, error) {
	s, err := startService(e, func(int64) campaign.Plan { return plan }, 1)
	if err != nil {
		return nil, 0, fmt.Errorf("daemon probe: %w", err)
	}
	for _, o := range s.clientRound(ctx, plan.Seed, plan.Seed, tr, parent) {
		if o.err != nil && err == nil {
			err = o.err
		}
	}
	held := float64(liveHeap())
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, fmt.Errorf("daemon probe: %w", err)
	}
	retained := (held - float64(liveHeap())) / 1024 / float64(1+warmJobs)
	return s.stats, retained, nil
}

// liveHeap returns the bytes of heap objects still reachable after a
// full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
