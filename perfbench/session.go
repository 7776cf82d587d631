package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	zeroinf "repro"
	"repro/internal/ckpt"
)

// engine is what the benchmark drives; zeroinf.Engine satisfies it.
type engine interface {
	Step(tokens, targets []int, batch int) (zeroinf.StepResult, error)
	FullParams() map[string][]float32
	Close()
}

// batchPool is how many distinct synthetic batches each rank cycles
// through. They are generated before any timing, so the timed loop hands
// ready batches to Step.
const batchPool = 64

// batches holds every rank's synthetic inputs, generated from the seed.
type batches struct {
	tok, tgt [ranks][batchPool][]int
}

func makeBatches(w workload, seed uint64) *batches {
	b := &batches{}
	for r := 0; r < ranks; r++ {
		for i := 0; i < batchPool; i++ {
			b.tok[r][i], b.tgt[r][i] = zeroinf.SyntheticBatch(seed*7919+uint64(1+i*ranks+r), w.model, w.batch)
		}
	}
	return b
}

func (b *batches) at(rank, step int) (tok, tgt []int) {
	return b.tok[rank][step%batchPool], b.tgt[rank][step%batchPool]
}

// eachRank runs fn for every rank on its own goroutine, waits for all of
// them and returns the first error.
func eachRank(fn func(r int) error) error {
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	wg.Add(ranks)
	for r := 0; r < ranks; r++ {
		go func() {
			defer wg.Done()
			errs[r] = fn(r)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// snapTiming is one rank's time inside one snapshot, by phase.
type snapTiming struct {
	waitPrev, save, submit, gather, total time.Duration
	bytes                                 int
}

// commit is one generation's asynchronous commit, seen from rank 0.
type commit struct {
	gen        uint64
	start, end time.Time
	err        error
}

// session is one set-up world of ranks with their engines and snapshot
// writer. Per-rank fields are indexed by rank and touched only by that
// rank's goroutine while ranks run.
type session struct {
	w       workload
	data    *batches
	worlds  []*zeroinf.World
	engines [ranks]engine
	recs    [ranks]*recorder
	writer  *ckpt.Writer
	ckptDir string

	next    [ranks]int // steps taken
	losses  [ranks][]float64
	snaps   [ranks][]snapTiming
	pending [ranks][]*ckpt.Ticket

	commitWG sync.WaitGroup
	commitMu sync.Mutex
	commits  []commit
}

// newSession builds the world (TCP bootstrap on the socket workload), one
// model and engine per rank, and the snapshot writer under dir. With recs
// set, engines drive the models through tracedModel.
func newSession(w workload, data *batches, dir string, recs [ranks]*recorder) (*session, error) {
	s := &session{w: w, data: data, recs: recs, ckptDir: filepath.Join(dir, "ckpt")}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	comms, err := s.buildWorlds()
	if err != nil {
		s.close()
		return nil, err
	}
	cfg := w.engine
	if cfg.Params == zeroinf.OnNVMe || cfg.Optimizer == zeroinf.OnNVMe {
		cfg.NVMeDir = filepath.Join(dir, "nvme")
		if err := os.MkdirAll(cfg.NVMeDir, 0o755); err != nil {
			s.close()
			return nil, err
		}
	}
	err = eachRank(func(r int) error {
		g, err := zeroinf.NewModel(w.model)
		if err != nil {
			return err
		}
		var e engine
		if recs[r] != nil {
			e, err = newTracedEngine(cfg, comms[r], tracedModel{GPT: g, rec: recs[r]})
		} else {
			e, err = zeroinf.NewEngine(cfg, comms[r], g)
		}
		if err != nil {
			return fmt.Errorf("rank %d engine: %w", r, err)
		}
		s.engines[r] = e
		return nil
	})
	if err == nil {
		s.writer, err = ckpt.NewWriter(s.ckptDir, ckpt.WriterOptions{World: ranks})
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// buildWorlds returns one communicator per rank: both from one in-memory
// world, or each from its own socket-transport world wired over loopback.
func (s *session) buildWorlds() ([ranks]*zeroinf.Comm, error) {
	var comms [ranks]*zeroinf.Comm
	be, err := zeroinf.BackendByName(s.w.engine.Backend)
	if err != nil {
		return comms, err
	}
	if !s.w.sock {
		wd, err := zeroinf.NewWorld(zeroinf.WorldOptions{Size: ranks, CodecBackend: be})
		if err != nil {
			return comms, err
		}
		s.worlds = []*zeroinf.World{wd}
		for r := range comms {
			comms[r] = wd.Comm(r)
		}
		return comms, nil
	}
	addr, err := freeLoopbackAddr()
	if err != nil {
		return comms, err
	}
	var worlds [ranks]*zeroinf.World
	err = eachRank(func(r int) error {
		if r != 0 {
			// Leaves dial after the hub has had time to listen, as when a
			// launcher starts the hub first; a leaf that finds no listener
			// retries only after a 50 ms back-off, which would make set-up
			// time bimodal.
			time.Sleep(leafDelay)
		}
		t, err := zeroinf.NewSockTransport(zeroinf.SockConfig{Rank: r, Size: ranks, Coord: addr})
		if err != nil {
			return fmt.Errorf("rank %d socket bootstrap: %w", r, err)
		}
		wd, err := zeroinf.NewWorld(zeroinf.WorldOptions{Transport: t, CodecBackend: be})
		if err != nil {
			t.Close()
			return err
		}
		worlds[r] = wd
		comms[r] = wd.Comm(r)
		return nil
	})
	for _, wd := range worlds {
		if wd != nil {
			s.worlds = append(s.worlds, wd)
		}
	}
	return comms, err
}

const leafDelay = 10 * time.Millisecond

// freeLoopbackAddr reserves a loopback port for the socket hub to listen on.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserving a loopback port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// close releases engines, waits for in-flight commits and closes the
// writer and worlds. It returns the writer's first commit error.
func (s *session) close() error {
	for _, e := range s.engines {
		if e != nil {
			e.Close()
		}
	}
	var err error
	if s.writer != nil {
		err = s.writer.Drain()
		s.commitWG.Wait()
		if cerr := s.writer.Close(); err == nil {
			err = cerr
		}
	}
	for _, wd := range s.worlds {
		wd.Close()
	}
	return err
}

// step runs rank r's next training step and returns its wall time.
func (s *session) step(r int) (time.Duration, error) {
	tok, tgt := s.data.at(r, s.next[r])
	rec := s.recs[r]
	if rec != nil {
		rec.id = s.next[r]
	}
	sp := rec.begin("Step", layerBench)
	t0 := time.Now()
	res, err := s.engines[r].Step(tok, tgt, s.w.batch)
	d := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return d, fmt.Errorf("rank %d step %d: %w", r, s.next[r], err)
	}
	s.next[r]++
	s.losses[r] = append(s.losses[r], res.Loss)
	return d, nil
}

// steps runs n steps on every rank.
func (s *session) steps(n int) error {
	return eachRank(func(r int) error {
		for i := 0; i < n; i++ {
			if _, err := s.step(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// snapshot takes rank r's part of one snapshot generation, as zeroinf.Train
// does: wait out the previous generation, stage and submit this rank's
// state, join the collective FullParams gather, and on rank 0 submit the
// consolidated weights.
func (s *session) snapshot(r int) error {
	rec := s.recs[r]
	var t snapTiming
	t0 := time.Now()
	root := rec.begin("snapshot", layerCkpt)
	gen, step := uint64(len(s.snaps[r])+1), s.next[r]

	sp := rec.begin("wait_prev", layerCkpt)
	for _, tk := range s.pending[r] {
		_ = tk.Wait() // a failed commit is counted once, by rank 0's commit watcher
	}
	s.pending[r] = s.pending[r][:0]
	rec.end(sp)
	t1 := time.Now()

	rs, ok := s.engines[r].(zeroinf.RankState)
	if !ok {
		return fmt.Errorf("engine %T does not implement RankState", s.engines[r])
	}
	sp = rec.begin("SaveRankState", layerCkpt)
	st := s.writer.Stage()
	if err := rs.SaveRankState(st); err != nil {
		s.writer.Recycle(st)
		return fmt.Errorf("rank %d snapshot at step %d: %w", r, step, err)
	}
	t.bytes += st.Len()
	rec.end(sp)
	t2 := time.Now()

	sp = rec.begin("Submit", layerCkpt)
	tk := s.writer.Submit(gen, step, ckpt.RankFileName(r), st)
	s.pending[r] = append(s.pending[r], tk)
	rec.end(sp)
	t3 := time.Now()

	sp = rec.begin("FullParams", layerCkpt)
	full := s.engines[r].FullParams() // collective: every rank joins
	rec.end(sp)
	t4 := time.Now()

	if r == 0 {
		sp = rec.begin("Submit", layerCkpt)
		ws := s.writer.Stage()
		if err := zeroinf.WriteCheckpoint(ws, full); err != nil {
			s.writer.Recycle(ws)
			return fmt.Errorf("weights snapshot at step %d: %w", step, err)
		}
		t.bytes += ws.Len()
		s.pending[r] = append(s.pending[r], s.writer.Submit(gen, step, ckpt.WeightsName, ws))
		rec.end(sp)
		s.watchCommit(gen, t2, tk)
	}
	t5 := time.Now()
	rec.end(root)

	t.waitPrev, t.save, t.gather = t1.Sub(t0), t2.Sub(t1), t4.Sub(t3)
	t.submit = t3.Sub(t2) + t5.Sub(t4)
	t.total = t5.Sub(t0)
	s.snaps[r] = append(s.snaps[r], t)
	return nil
}

// watchCommit records when generation gen's commit completes.
func (s *session) watchCommit(gen uint64, start time.Time, tk *ckpt.Ticket) {
	s.commitWG.Add(1)
	go func() {
		defer s.commitWG.Done()
		err := tk.Wait()
		end := time.Now()
		s.commitMu.Lock()
		s.commits = append(s.commits, commit{gen: gen, start: start, end: end, err: err})
		s.commitMu.Unlock()
	}()
}

// stepsWithSnapshots runs n rounds of one step and one snapshot per rank.
func (s *session) stepsWithSnapshots(n int) error {
	return eachRank(func(r int) error {
		for i := 0; i < n; i++ {
			if _, err := s.step(r); err != nil {
				return err
			}
			if err := s.snapshot(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// window is what rank 0 saw during the timed window.
type window struct {
	wall     time.Duration
	stepMS   []float64 // untraced steps
	tracedMS []float64 // traced steps (trace runs only)
	allocs   []float64 // heap allocations per untraced step, process-wide
	steps    int
	snaps    int // snapshots taken inside the window
}

// timedWindow steps every rank until d has passed on rank 0, which decides
// before each step whether the ranks go on. In a traced session every
// other step is traced, so traced and untraced steps interleave.
func (s *session) timedWindow(d time.Duration) (window, error) {
	traced := s.recs[0] != nil
	var wn window
	var goOn [ranks]chan bool
	for r := 1; r < ranks; r++ {
		goOn[r] = make(chan bool)
	}
	meter := newAllocMeter()
	var start time.Time
	err := eachRank(func(r int) error {
		for i := 0; ; i++ {
			if r == 0 {
				if i == 0 {
					start = time.Now()
				}
				wn.wall = time.Since(start)
				cont := wn.wall < d
				for _, ch := range goOn[1:] {
					ch <- cont
				}
				if !cont {
					return nil
				}
			} else if !<-goOn[r] {
				return nil
			}
			if traced {
				s.recs[r].on = i%2 == 0
			}
			a0 := meter0(r, meter)
			dur, err := s.step(r)
			a1 := meter0(r, meter)
			if err != nil {
				return err
			}
			if k := s.w.snapshotEvery; k > 0 && s.next[r]%k == 0 {
				if err := s.snapshot(r); err != nil {
					return err
				}
			}
			if r != 0 {
				continue
			}
			wn.steps, wn.snaps = wn.steps+1, len(s.snaps[0])
			ms := float64(dur) / float64(time.Millisecond)
			if traced && i%2 == 0 {
				wn.tracedMS = append(wn.tracedMS, ms)
			} else {
				wn.stepMS = append(wn.stepMS, ms)
				wn.allocs = append(wn.allocs, float64(a1-a0))
			}
		}
	})
	for _, rec := range s.recs {
		if rec != nil {
			rec.on = traced
		}
	}
	return wn, err
}

// meter0 reads the allocation meter on rank 0 only.
func meter0(r int, m *allocMeter) uint64 {
	if r != 0 {
		return 0
	}
	return m.read()
}
