package main

import (
	"fmt"
	"io"
	"math"

	zeroinf "repro"
	"repro/internal/ckpt"
)

// referenceLosses trains the same model on the same batches with plain data
// parallelism (StageDDP) over the in-memory transport and returns rank 0's
// per-step losses. Every engine must reproduce them bit for bit.
func referenceLosses(w workload, data *batches, dir string, steps int) ([]float64, error) {
	ref := w
	ref.engine = base(w.engine.Seed)
	ref.engine.Stage = zeroinf.StageDDP
	ref.sock, ref.snapshotEvery = false, 0
	s, err := newSession(ref, data, dir, [ranks]*recorder{})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	err = s.steps(steps)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return s.losses[0], nil
}

// lossMismatches counts the steps whose loss is not bit-identical to the
// reference, including steps missing from either side.
func lossMismatches(got, want []float64) int {
	bad := 0
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			bad++
		}
	}
	return bad
}

// verifyLatest reopens the newest generation under dir, which must pass
// every size and CRC check in ckpt.LatestComplete and be generation gen at
// step, and reads back each rank's state file and the weights.
func verifyLatest(dir string, gen uint64, step int) error {
	set, err := ckpt.LatestComplete(dir)
	if err != nil {
		return err
	}
	m := set.Manifest
	if m.Generation != gen || m.Step != step || m.World != ranks {
		return fmt.Errorf("latest generation is %d at step %d of %d ranks, want %d at step %d of %d",
			m.Generation, m.Step, m.World, gen, step, ranks)
	}
	for r := 0; r < ranks; r++ {
		rc, err := set.OpenRank(r)
		if err != nil {
			return err
		}
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return err
		}
		if f, _ := m.File(ckpt.RankFileName(r)); int64(len(b)) != f.Size || ckpt.Checksum(b) != f.CRC {
			return fmt.Errorf("rank %d state of generation %d does not match its manifest entry", r, gen)
		}
	}
	rc, err := set.OpenWeights()
	if err != nil {
		return err
	}
	defer rc.Close()
	if _, err := zeroinf.ReadCheckpoint(rc); err != nil {
		return fmt.Errorf("weights of generation %d: %w", gen, err)
	}
	return nil
}
