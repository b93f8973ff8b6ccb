// Package faultfs is a deterministic fault-injection harness for the live
// metering pipeline. It attacks the same seams the meter already uses for
// offline testing — the injectable powercap/proc roots and the injectable
// ReadFile hook in internal/rapl and internal/procfs — and produces the
// fault classes that dominate real long-running telemetry (WattScope,
// arXiv:2309.12612; Mazzola et al., arXiv:2401.01826):
//
//   - transient sysfs/procfs read errors, singly or in bursts that outlast
//     a retry policy;
//   - RAPL counter wraparound (the Host uses real modulo counters, so wraps
//     occur exactly as on hardware);
//   - vanishing zones and processes (package hotplug, permission loss, PID
//     churn), either injected at the read layer or by really deleting the
//     files;
//   - stalled clocks (the storm driver replays the same timestamp).
//
// Everything is driven by an explicit seed: a storm is reproducible
// bit-for-bit, which is what makes "the meter attributes ≥99 % of the
// ground-truth energy under this storm" a testable claim rather than a
// flaky one.
package faultfs

import (
	"errors"
	iofs "io/fs"
	"math/rand"
	"os"
	"strings"
	"sync"

	"powerdiv/internal/rng"
)

// ErrInjected marks a transient read error produced by an Injector.
var ErrInjected = errors.New("faultfs: injected transient read error")

// Stats counts what an Injector has done.
type Stats struct {
	// Reads is the total number of reads routed through the injector.
	Reads int
	// InjectedErrors counts reads failed with ErrInjected.
	InjectedErrors int
	// VanishedReads counts reads failed with fs.ErrNotExist because the
	// path was vanished.
	VanishedReads int
}

// Injector wraps a read function and deterministically injects faults.
// It is safe for concurrent use.
type Injector struct {
	mu        sync.Mutex
	rng       *rand.Rand
	read      func(string) ([]byte, error)
	errorRate float64
	burstLen  int
	bursts    map[string]int
	vanished  []string
	only      []string
	stats     Stats
}

// NewInjector returns an injector over os.ReadFile with the given seed and
// per-read transient-error probability.
func NewInjector(seed int64, errorRate float64) *Injector {
	return &Injector{
		rng:       rng.New(seed),
		read:      os.ReadFile,
		errorRate: errorRate,
		burstLen:  1,
		bursts:    map[string]int{},
	}
}

// SetErrorRate changes the per-read transient-error probability (storms
// script it over time: high during the storm, zero for a clean drain).
func (in *Injector) SetErrorRate(rate float64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.errorRate = rate
}

// SetBurstLen makes every triggered error repeat for the next n reads of
// the same path. Bursts longer than the reader's retry budget are what
// force whole-tick drops and exercise the meter's carry-over path.
func (in *Injector) SetBurstLen(n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n < 1 {
		n = 1
	}
	in.burstLen = n
}

// Only restricts fault injection to paths containing any of the given
// substrings (e.g. "energy_uj"); an empty call removes the restriction.
func (in *Injector) Only(substrings ...string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.only = substrings
}

// Vanish makes every future read of a path with the given prefix fail with
// fs.ErrNotExist, as if the file tree disappeared (zone hot-unplug, revoked
// permissions, process exit).
func (in *Injector) Vanish(prefix string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.vanished = append(in.vanished, prefix)
}

// Restore undoes Vanish for the given prefix.
func (in *Injector) Restore(prefix string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	kept := in.vanished[:0]
	for _, p := range in.vanished {
		if p != prefix {
			kept = append(kept, p)
		}
	}
	in.vanished = kept
}

// FailNext forces the next n reads of paths containing the substring to
// fail with ErrInjected, regardless of the error rate. Deterministic
// scripts use it to place a fault exactly where the scenario needs one.
func (in *Injector) FailNext(substring string, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.bursts[substring] += n
}

// Stats returns a snapshot of the injector's counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// ReadFile reads the path, possibly injecting a fault. It matches the
// ReadFileFunc seams in internal/rapl and internal/procfs and the ReadFile
// hook in livemeter.Config.
func (in *Injector) ReadFile(path string) ([]byte, error) {
	in.mu.Lock()
	in.stats.Reads++
	for _, p := range in.vanished {
		if strings.HasPrefix(path, p) {
			in.stats.VanishedReads++
			in.mu.Unlock()
			return nil, &iofs.PathError{Op: "open", Path: path, Err: iofs.ErrNotExist}
		}
	}
	if in.eligible(path) {
		for sub, n := range in.bursts {
			if n > 0 && strings.Contains(path, sub) {
				in.bursts[sub] = n - 1
				in.stats.InjectedErrors++
				in.mu.Unlock()
				return nil, &iofs.PathError{Op: "read", Path: path, Err: ErrInjected}
			}
		}
		if in.errorRate > 0 && in.rng.Float64() < in.errorRate {
			if in.burstLen > 1 {
				in.bursts[path] += in.burstLen - 1
			}
			in.stats.InjectedErrors++
			in.mu.Unlock()
			return nil, &iofs.PathError{Op: "read", Path: path, Err: ErrInjected}
		}
	}
	read := in.read
	in.mu.Unlock()
	return read(path)
}

// eligible reports whether the path is subject to rate/burst injection.
// Caller holds the lock.
func (in *Injector) eligible(path string) bool {
	if len(in.only) == 0 {
		return true
	}
	for _, sub := range in.only {
		if strings.Contains(path, sub) {
			return true
		}
	}
	return false
}
