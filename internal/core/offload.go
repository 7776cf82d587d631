package core

import (
	"fmt"

	"repro/internal/nvme"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// stagedRead is a parameter's [master|m|v] region being read into a pinned
// staging buffer.
type stagedRead struct {
	ps     *pstate
	buf    []byte
	ticket *nvme.Ticket
}

// pendingWrite is a streamed parameter's write-back still in flight: its
// updated optimizer state from the pinned staging buffer buf and, with
// parameters on NVMe, its refreshed fp16 shard from the arena buffer pbuf
// (pbuf and pt are nil otherwise).
type pendingWrite struct {
	buf, pbuf []byte
	wt, pt    *nvme.Ticket
}

// writeRing queues pendingWrites in submission order. Every entry holds a pinned
// buffer, so a ring sized to the pinned pool never overflows.
type writeRing struct {
	slots   []pendingWrite
	head, n int
}

//zinf:hotpath
func (r *writeRing) push(w pendingWrite) {
	if r.n == len(r.slots) {
		panic("core: optimizer write ring overflow")
	}
	r.slots[(r.head+r.n)%len(r.slots)] = w
	r.n++
}

//zinf:hotpath
func (r *writeRing) pop() pendingWrite {
	w := r.slots[r.head]
	r.slots[r.head] = pendingWrite{}
	r.head = (r.head + 1) % len(r.slots)
	r.n--
	return w
}

// optimizerStepNVMe streams every owned parameter's [master|m|v] region
// from NVMe through pinned staging buffers and applies the Adam update in
// place on them — the chunked, overlapped optimizer step of the infinity
// offload engine (paper Secs. 5.2.2 and 6.3). The staging buffer is viewed
// as three float32 vectors, so the state is neither decoded before the
// update nor re-encoded after it; the write-back goes out of the same
// buffer, and the refreshed fp16 shard is encoded straight into its write
// buffer (or into the resident shard when parameters are not on NVMe).
// Only this rank's owned parameters stream: all of them under 1/dp slicing,
// the round-robin subset under owner-rank broadcast.
//
// The read for parameter i+1 is started before parameter i is updated.
// Writes complete asynchronously in an in-order ring; when the pinned pool
// runs dry the oldest write is awaited and its buffer reused, which is the
// pool's back-pressure on in-flight I/O.
func (e *InfinityEngine) optimizerStepNVMe() error {
	var err error
	var cur stagedRead
	if len(e.owned) > 0 {
		cur, err = e.readState(e.states[e.owned[0]])
	}
	for i := 0; err == nil && i < len(e.owned); i++ {
		var next stagedRead
		if i+1 < len(e.owned) {
			if next, err = e.readState(e.states[e.owned[i+1]]); err != nil {
				e.abandonRead(cur)
				break
			}
		}
		if werr := cur.ticket.Wait(); werr != nil {
			err = fmt.Errorf("core: optimizer read %s: %w", cur.ps.p.Name, werr)
			e.pinned.Release(cur.buf)
			e.abandonRead(next)
			break
		}
		ps := cur.ps
		w := pendingWrite{buf: cur.buf}
		half := ps.hostShard
		if e.cfg.Params == zero.OnNVMe {
			w.pbuf = e.bytes.Get(int(ps.region.Size))
			half = tensor.HalfView(w.pbuf)
		}
		e.adamInPlace(ps, cur.buf[:ps.optRegion.Size], half)
		w.wt = e.io.WriteRegion(cur.buf[:ps.optRegion.Size], ps.optRegion)
		if w.pbuf != nil {
			w.pt = e.io.WriteRegion(w.pbuf, ps.region)
		}
		e.writes.push(w)
		cur = next
	}
	for e.writes.n > 0 {
		if werr := e.reapWrite(); err == nil {
			err = werr
		}
	}
	e.io.Flush()
	return err
}

// adamInPlace applies the Adam update to ps's optimizer state in its
// staging buffer state ([master|m|v], little-endian float32), consumes the
// gradient shard, and encodes the updated master weights into half.
//
//zinf:hotpath
func (e *InfinityEngine) adamInPlace(ps *pstate, state []byte, half []tensor.Half) {
	s := ps.shardLen
	f := tensor.F32View(state)
	master := f[:s]
	optim.StepVecOn(e.rt.Backend(), e.cfg.Adam, e.stepCount, master, ps.gradShard, f[s:2*s], f[2*s:3*s])
	e.f32.Put(ps.gradShard)
	ps.gradShard = nil
	e.rt.Backend().EncodeHalf(half, master)
}

// readState starts the read of ps's optimizer region into a pinned buffer,
// reaping the oldest pending writes while the pool is exhausted. Its error
// is a failed reaped write, in which case no read was started.
func (e *InfinityEngine) readState(ps *pstate) (stagedRead, error) {
	for {
		buf, ok := e.pinned.TryAcquire()
		if !ok && e.writes.n == 0 {
			buf, ok = e.pinned.Acquire(), true
		}
		if ok {
			t := e.io.ReadRegion(buf[:ps.optRegion.Size], ps.optRegion)
			return stagedRead{ps: ps, buf: buf, ticket: t}, nil
		}
		if err := e.reapWrite(); err != nil {
			return stagedRead{}, err
		}
	}
}

// abandonRead awaits a started read (if any) whose data is no longer wanted
// and returns its buffer to the pool.
func (e *InfinityEngine) abandonRead(r stagedRead) {
	if r.buf != nil {
		_ = r.ticket.Wait()
		e.pinned.Release(r.buf)
	}
}

// reapWrite awaits the oldest pending write and returns its buffers to their
// pools, reporting the first write error.
func (e *InfinityEngine) reapWrite() error {
	w := e.writes.pop()
	err := w.wt.Wait()
	if w.pt != nil {
		if perr := w.pt.Wait(); err == nil {
			err = perr
		}
		e.bytes.Put(w.pbuf)
	}
	e.pinned.Release(w.buf)
	if err != nil {
		return fmt.Errorf("core: optimizer write: %w", err)
	}
	return nil
}
