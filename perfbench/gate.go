package main

import (
	"fmt"
	"hash"
	"hash/crc32"

	"repro/internal/core"
	"repro/internal/expand"
	"repro/internal/memsim"
	"repro/internal/tree"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digest identifies an encoded schedule stream: its length and CRC-32C.
type digest struct {
	Bytes int64
	CRC   uint32
}

// digestWriter hashes and counts the bytes written to it: the counting
// discard writer the streamed workloads encode into.
type digestWriter struct {
	h hash.Hash32
	n int64
}

func newDigestWriter() *digestWriter { return &digestWriter{h: crc32.New(castagnoli)} }

// Write implements io.Writer.
func (d *digestWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return d.h.Write(p)
}

func (d *digestWriter) digest() digest { return digest{Bytes: d.n, CRC: d.h.Sum32()} }

// scheduleDigest encodes s as tree.WriteSchedule would stream it.
func scheduleDigest(s tree.Schedule) (digest, error) {
	d := newDigestWriter()
	if _, err := tree.WriteSchedule(d, s.Emit); err != nil {
		return digest{}, err
	}
	return d.digest(), nil
}

// outcome is what one offline run produced, in the terms the gate checks.
// Expansions is -1 where the called path does not report it
// (core.Runner.Run).
type outcome struct {
	IO         int64
	Peak       int64
	Expansions int
	Stream     digest
}

// check compares a timed run's outcome with the ground truth.
func (want outcome) check(got outcome) error {
	switch {
	case got.IO != want.IO:
		return fmt.Errorf("IO %d, want %d", got.IO, want.IO)
	case got.Peak != want.Peak:
		return fmt.Errorf("peak %d, want %d", got.Peak, want.Peak)
	case got.Expansions >= 0 && got.Expansions != want.Expansions:
		return fmt.Errorf("expansions %d, want %d", got.Expansions, want.Expansions)
	case got.Stream != want.Stream:
		return fmt.Errorf("schedule stream %+v, want %+v", got.Stream, want.Stream)
	}
	return nil
}

// groundTruth schedules t once on the sequential materialising engine,
// checks the schedule with verifySchedule and the engine's simulated I/O
// against the re-simulation, and digests the encoded stream.
func groundTruth(e *expand.Engine, t *tree.Tree, M, budget int64) (outcome, tree.Schedule, error) {
	res, err := e.RecExpand(t, M, expand.Options{MaxPerNode: 2, Workers: 1, CacheBudget: budget})
	if err != nil {
		return outcome{}, nil, err
	}
	simIO, err := verifySchedule(t, M, res.Schedule, res.IO, res.SimulatedPeak)
	if err != nil {
		return outcome{}, nil, err
	}
	if simIO != res.SimulatedIO {
		return outcome{}, nil, fmt.Errorf("re-simulated io %d, engine reports %d", simIO, res.SimulatedIO)
	}
	d, err := scheduleDigest(res.Schedule)
	if err != nil {
		return outcome{}, nil, err
	}
	return outcome{IO: res.IO, Peak: res.SimulatedPeak, Expansions: res.Expansions, Stream: d}, res.Schedule, nil
}

// verifySchedule validates sched, re-simulates it with FiF under M and
// checks a declared io and peak against the simulation and the I/O lower
// bound. It returns the simulated I/O.
func verifySchedule(t *tree.Tree, M int64, sched tree.Schedule, io, peak int64) (int64, error) {
	if err := tree.Validate(t, sched); err != nil {
		return 0, fmt.Errorf("ground truth schedule: %w", err)
	}
	sim, err := memsim.Run(t, M, sched, memsim.FiF)
	if err != nil {
		return 0, fmt.Errorf("re-simulating ground truth: %w", err)
	}
	switch {
	case sim.Peak != peak:
		return 0, fmt.Errorf("re-simulated peak %d, declared %d", sim.Peak, peak)
	case sim.IO > io:
		return 0, fmt.Errorf("FiF io %d exceeds declared io %d", sim.IO, io)
	case io < core.IOLowerBound(t, M):
		return 0, fmt.Errorf("io %d below the lower bound %d", io, core.IOLowerBound(t, M))
	}
	return sim.IO, nil
}

// checkBody compares a served stream with the expected bytes.
func checkBody(want, got []byte) error {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return fmt.Errorf("stream differs at byte %d", i)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("stream has %d bytes, want %d", len(got), len(want))
	}
	return nil
}
