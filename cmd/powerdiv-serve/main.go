// Command powerdiv-serve is the campaign-as-a-service daemon: a
// long-running HTTP JSON API that accepts campaign, trace-replay,
// stress-pair and fleet submissions, shards them across the shared
// simulation worker budget, streams per-scenario results back as NDJSON,
// and snapshots progress so a killed daemon resumes bit-identically.
//
// Endpoints:
//
//	POST   /v1/jobs              submit ("stream":true streams NDJSON rows)
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status
//	GET    /v1/jobs/{id}/results NDJSON row stream (follows a running job)
//	DELETE /v1/jobs/{id}         cancel
//	GET    /healthz              liveness
//	GET    /metrics              Prometheus text (with -metrics)
//
// SIGINT/SIGTERM drains gracefully: admission closes (503), in-flight jobs
// finish and snapshot, then the daemon exits. A second signal — or the
// drain timeout — exits immediately; the periodic snapshots make that safe.
//
// Usage:
//
//	powerdiv-serve [-addr :8080] [-snapshot-dir DIR] [-cache-dir DIR]
//	               [-cache-bytes N] [-queue 8] [-runners 2]
//	               [-snapshot-every 4] [-drain-timeout 60s] [-metrics]
//	powerdiv-serve -smoke
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"powerdiv/internal/obs"
	"powerdiv/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	snapshotDir := flag.String("snapshot-dir", "", "job snapshot directory (empty = no durability)")
	cacheDir := flag.String("cache-dir", "", "persistent phase-1 baseline cache directory (empty = memory only)")
	cacheBytes := flag.Int64("cache-bytes", 0, "on-disk cache cap in bytes (0 = default 256 MB)")
	queueCap := flag.Int("queue", 8, "bounded job queue capacity (admission 429s past it)")
	runners := flag.Int("runners", 2, "concurrent jobs (simulation work shares GOMAXPROCS regardless)")
	snapshotEvery := flag.Int("snapshot-every", 4, "snapshot a running job every n completed rows")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "max wait for in-flight jobs on shutdown")
	metrics := flag.Bool("metrics", false, "enable internal metrics (/metrics, /metrics.json)")
	smoke := flag.Bool("smoke", false, "self-test: start in-process, run a 5-scenario job, exit")
	flag.Parse()

	obs.Enable(*metrics || *smoke)

	s, err := serve.New(serve.Options{
		SnapshotDir:    *snapshotDir,
		CacheDir:       *cacheDir,
		CacheDiskBytes: *cacheBytes,
		QueueCap:       *queueCap,
		Runners:        *runners,
		SnapshotEvery:  *snapshotEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}

	if *smoke {
		if err := runSmoke(s); err != nil {
			fmt.Fprintln(os.Stderr, "smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("smoke: OK")
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	hs := &http.Server{Handler: s.Handler()}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	fmt.Printf("powerdiv-serve listening on %s (snapshots: %s)\n", ln.Addr(), orNone(*snapshotDir))

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	case got := <-sig:
		fmt.Printf("%s: draining (timeout %s; signal again to force)\n", got, *drainTimeout)
	}
	forced := make(chan struct{})
	go func() {
		<-sig
		close(forced)
	}()
	drained := make(chan bool, 1)
	go func() { drained <- s.Drain(*drainTimeout) }()
	select {
	case ok := <-drained:
		hs.Close()
		if !ok {
			fmt.Fprintln(os.Stderr, "drain timed out; in-flight jobs resume from snapshots on restart")
			os.Exit(1)
		}
		fmt.Println("drained")
	case <-forced:
		hs.Close()
		fmt.Fprintln(os.Stderr, "forced exit; in-flight jobs resume from snapshots on restart")
		os.Exit(1)
	}
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}

// runSmoke exercises the full service path in-process: loopback listener,
// one streamed 5-scenario submission, NDJSON well-formedness checks, then a
// graceful drain. It is the `make serve-smoke` gate.
func runSmoke(s *serve.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	spec := map[string]any{
		"kind": "traffic", "seed": 42, "scenarios": 5,
		"window_ms": 4000, "run_for_ms": 5000, "stable_window_ms": 2000,
		"stream": true,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("submit: status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return fmt.Errorf("submit: content type %q, want application/x-ndjson", ct)
	}

	rows, terminal := 0, false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if terminal {
			return fmt.Errorf("stream continued past the terminal line")
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(line, &obj); err != nil {
			return fmt.Errorf("malformed NDJSON line %q: %w", line, err)
		}
		if _, ok := obj["done"]; ok {
			terminal = true
			var state string
			if err := json.Unmarshal(obj["state"], &state); err != nil || state != "done" {
				return fmt.Errorf("terminal state %s, want done", obj["state"])
			}
			continue
		}
		if _, ok := obj["models"]; !ok {
			return fmt.Errorf("row line %q has no model scores", line)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !terminal {
		return fmt.Errorf("stream ended without a terminal line")
	}
	if rows != 5 {
		return fmt.Errorf("streamed %d rows, want 5", rows)
	}
	if !s.Drain(time.Minute) {
		return fmt.Errorf("drain timed out")
	}
	fmt.Printf("smoke: 5 scenario rows + terminal line, drained\n")
	return nil
}
