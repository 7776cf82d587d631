package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"time"

	zeroinf "repro"
	"repro/internal/module"
)

// Layers a span can belong to; each is one thread in the Chrome trace.
const (
	layerBench  = "bench" // setup phase and Engine.Step
	layerModel  = "model" // ForwardLoss / BackwardLoss
	layerCkpt   = "ckpt"  // snapshot calls on the training goroutine
	layerWriter = "ckpt-writer"
)

var layerTids = map[string]int{layerBench: 1, layerModel: 2, layerCkpt: 3, layerWriter: 4}

// span is one timed call into a layer, recorded from outside the program.
type span struct {
	name       string
	layer      string
	start, end time.Duration // since the trace epoch
	parent     int           // index of the enclosing span of the same rank, -1 for none
	rank       int
	id         int // step index, shared by every span of one step
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder keeps one rank's spans in memory. It is used only from that
// rank's goroutine; spans are written out after the run. A nil recorder,
// or one switched off, records nothing.
type recorder struct {
	epoch time.Time
	rank  int
	on    bool
	id    int   // shared id of spans begun now
	open  []int // stack of unfinished spans
	spans []span
}

func newRecorder(epoch time.Time, rank int) *recorder {
	return &recorder{epoch: epoch, rank: rank, spans: make([]span, 0, 4096)}
}

// begin opens a span nested in the innermost open one and returns its
// handle for end; -1 when not recording.
func (r *recorder) begin(name, layer string) int {
	if r == nil || !r.on {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{name: name, layer: layer, start: time.Since(r.epoch),
		parent: parent, rank: r.rank, id: r.id})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = time.Since(r.epoch)
	r.open = r.open[:len(r.open)-1]
}

// count returns how many spans have been recorded.
func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// selfTime is spans[i]'s duration minus the part of it its children cover.
func selfTime(spans []span, i int) time.Duration {
	p := spans[i]
	type iv struct{ a, b time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.parent != i || s.rank != p.rank {
			continue
		}
		a, b := max(s.start, p.start), min(s.end, p.end)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(x, y int) bool { return kids[x].a < kids[y].a })
	covered, reach := time.Duration(0), p.start
	for _, k := range kids {
		if k.b <= reach {
			continue
		}
		covered += k.b - max(k.a, reach)
		reach = k.b
	}
	return p.dur() - covered
}

// tracedModel times ForwardLoss and BackwardLoss of the GPT it wraps. The
// engines take it through their zero.Model parameter.
type tracedModel struct {
	*zeroinf.GPT
	rec *recorder
}

func (m tracedModel) ForwardLoss(rt *module.Runtime, tokens, targets []int, batch int) float64 {
	sp := m.rec.begin("ForwardLoss", layerModel)
	loss := m.GPT.ForwardLoss(rt, tokens, targets, batch)
	m.rec.end(sp)
	return loss
}

func (m tracedModel) BackwardLoss(rt *module.Runtime, scale float32) {
	sp := m.rec.begin("BackwardLoss", layerModel)
	m.GPT.BackwardLoss(rt, scale)
	m.rec.end(sp)
}

// traceEvent is one Chrome trace-event record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // µs
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON: one pid per rank
// and one tid per layer, so the file opens in Perfetto.
func writeChromeTrace(path string, spans []span) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var evs []traceEvent
	named := map[[2]int]bool{}
	for _, s := range spans {
		tid := layerTids[s.layer]
		if !named[[2]int{s.rank, 0}] {
			named[[2]int{s.rank, 0}] = true
			evs = append(evs, traceEvent{Name: "process_name", Ph: "M", Pid: s.rank,
				Args: map[string]any{"name": "rank " + strconv.Itoa(s.rank)}})
		}
		if !named[[2]int{s.rank, tid}] {
			named[[2]int{s.rank, tid}] = true
			evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: s.rank, Tid: tid,
				Args: map[string]any{"name": s.layer}})
		}
		evs = append(evs, traceEvent{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.dur()),
			Pid: s.rank, Tid: tid, Args: map[string]any{"step": s.id, "parent": s.parent}})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
