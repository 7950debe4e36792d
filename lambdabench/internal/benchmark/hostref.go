package benchmark

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by a third or more
// over minutes (other tenants' load on the same cores and caches). Every time
// metric drifts with it, CPU time per job too, so the slowdown is in the
// cores, not in scheduling, and no median inside a run removes a drift that
// outlasts the run. So each run also times a fixed reference task between the
// slices of its measured window and before its set-ups, while the program is
// idle, and the end-to-end time metrics are scaled to the speed at which the
// task takes refNominalMS: its median time on the calibration host (2 vCPUs
// of an Intel Xeon VM, see README.md) in a calm period. The unscaled values
// are kept in the report.
const refNominalMS = 13.0

// hostRef is the reference task, run on as many goroutines at once as the
// workloads run clients. Each lane sorts a slice and hashes a buffer, which
// slows down when a neighbour shares the core, and then follows a random
// cycle through 4 MiB, which slows down when neighbours evict the shared
// cache; the program is slowed by both. It shares no code with the program
// and allocates nothing while timed. The cycle lives outside the Go heap, so
// the program's heap, its collector and heap_live_mb do not see it.
type hostRef struct {
	lanes   []refLane
	samples []float64
}

type refLane struct {
	keys, buf []float64
	data      []byte
	sum       [sha256.Size]byte
	cycle     []byte // refCycle little-endian uint32 stream positions, one cycle
	end       uint32
}

const (
	refKeys   = 1 << 14
	refBytes  = 1 << 18
	refRounds = 3
	refCycle  = 1 << 20
	refSteps  = 100_000
	// refSamples is how many times each idle gap times the task.
	refSamples = 2
)

func newHostRef() (*hostRef, error) {
	rng := rand.New(rand.NewSource(1))
	h := &hostRef{lanes: make([]refLane, Clients)}
	for i := range h.lanes {
		l := &h.lanes[i]
		l.keys = make([]float64, refKeys)
		l.buf = make([]float64, refKeys)
		l.data = make([]byte, refBytes)
		for k := range l.keys {
			l.keys[k] = rng.Float64()
		}
		rng.Read(l.data)
		cycle, err := syscall.Mmap(-1, 0, 4*refCycle, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			h.close()
			return nil, err
		}
		l.cycle = cycle
		// Sattolo's shuffle of the identity gives one cycle through every
		// position, so each step is a load the previous one decides.
		at := func(k int) []byte { return cycle[4*k:] }
		for k := 0; k < refCycle; k++ {
			binary.LittleEndian.PutUint32(at(k), uint32(k))
		}
		for k := refCycle - 1; k > 0; k-- {
			j := rng.Intn(k)
			a, b := binary.LittleEndian.Uint32(at(k)), binary.LittleEndian.Uint32(at(j))
			binary.LittleEndian.PutUint32(at(k), b)
			binary.LittleEndian.PutUint32(at(j), a)
		}
	}
	return h, nil
}

// close unmaps the lanes' cycles and drops their buffers, so that a heap
// measured afterwards holds only the program's objects. The samples stay.
func (h *hostRef) close() {
	for _, l := range h.lanes {
		if l.cycle != nil {
			_ = syscall.Munmap(l.cycle) // only fails for a mapping this code did not make
		}
	}
	h.lanes = nil
}

// sample times the task refSamples times, each on every lane at once.
func (h *hostRef) sample() {
	for s := 0; s < refSamples; s++ {
		var wg sync.WaitGroup
		start := time.Now()
		for i := range h.lanes {
			wg.Add(1)
			go func(l *refLane) {
				defer wg.Done()
				for r := 0; r < refRounds; r++ {
					copy(l.buf, l.keys)
					sort.Float64s(l.buf)
					l.sum = sha256.Sum256(l.data)
				}
				p := l.end
				for k := 0; k < refSteps; k++ {
					p = binary.LittleEndian.Uint32(l.cycle[4*p:])
				}
				l.end = p
			}(&h.lanes[i])
		}
		wg.Wait()
		h.samples = append(h.samples, msSince(start))
	}
}

// speed is how fast the host ran the task during the run, relative to the
// calibration host: the nominal time over the median sample.
func (h *hostRef) speed() float64 { return refNominalMS / Median(h.samples) }
