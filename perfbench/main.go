// Command perfbench is the CDStore benchmark. It drives the real stack
// in one process over loopback TCP: the client package, four servers in
// the shape cdstore-server runs them (LocalDir containers, an on-disk
// index, scrub off) and, for one workload, a gateway per cloud.
//
//	perfbench --workload bulk-unique --seed 1 --seconds 20 --trace 0
//
// A run repeats rounds (fresh cluster, back up every input file,
// restore every file) until --seconds is spent, after one warm-up round
// that is not reported. With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it alternates untraced
// and traced rounds and prints the per-layer metrics, and writes the
// traced spans to the output directory. The last line of standard
// output is the result object; the line before it records the hardware
// fingerprint, durability mode and seed.
//
// The exit code is 1 when a restored file does not match its digest or
// a wire count disagrees with the program's own counter, and 2 when the
// run cannot start.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cdstore/internal/gf256"
)

// durability names the persistence the measured program gives an ack.
const durability = "LocalDir container puts without fsync; index WAL unsynced (lsmkv SyncWAL=false); " +
	"server flush on connection Bye, none on mux stream Bye"

// genRepeats is how many times a run generates its inputs to time it.
const genRepeats = 3

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: bulk-unique, fsl-weekly, vm-gateway or wan-straggler")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "how long to run rounds")
		trace   = flag.Int("trace", 0, "1: per-layer metrics from a traced run")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for data and span files")
	)
	flag.Parse()
	spec := findWorkload(*name, runtime.NumCPU())
	if spec == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (bulk-unique, fsl-weekly, vm-gateway, wan-straggler), --seconds >= 1, --trace 0|1")
		return 2
	}
	traced := *trace == 1
	runDir := filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defer removeAll(runDir)

	// Every round reuses one copy of the inputs, so rounds do not churn the
	// heap with fresh ones; the generation time in set-up is the median of
	// genRepeats generations. A first round warms the heap, page cache and
	// lazy set-up; it is not reported and does not count against --seconds.
	var in *inputs
	var gens []float64
	for i := 0; i < genRepeats; i++ {
		t0 := time.Now()
		in = spec.generate(*seed)
		gens = append(gens, time.Since(t0).Seconds())
	}
	gen := time.Duration(medianOf(gens) * float64(time.Second))
	if _, err := runRound(spec, in, gen, filepath.Join(runDir, "warmup"), false); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: warm-up round: %v\n", err)
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	var plain, withTrace []*roundResult
	for i := 0; ; i++ {
		tr := traced && i%2 == 1
		rr, err := runRound(spec, in, gen, filepath.Join(runDir, fmt.Sprintf("r%d", i)), tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: round %d: %v\n", i, err)
			return 2
		}
		if tr {
			withTrace = append(withTrace, rr)
		} else {
			plain = append(plain, rr)
		}
		done := len(plain) + len(withTrace)
		elapsed := time.Since(start)
		enough := len(plain) > 0 && (!traced || len(withTrace) > 0)
		// Stop when another round of average length would overrun.
		if enough && elapsed+elapsed/time.Duration(done) > budget {
			break
		}
	}

	all := append(append([]*roundResult(nil), plain...), withTrace...)
	attempted, failed, mismatches := 0, 0, 0
	var crossErrs, errs []string
	for _, r := range all {
		for _, p := range []*phaseStats{r.backup, r.restore} {
			attempted += p.ops
			failed += p.failed
			mismatches += p.mismatches
			errs = append(errs, p.errs...)
		}
		crossErrs = append(crossErrs, r.crossErrs...)
	}
	if len(errs) > 5 {
		errs = errs[:5]
	}
	correct := mismatches == 0 && len(crossErrs) == 0

	info := map[string]any{
		"workload":       spec.name,
		"seed":           *seed,
		"seconds":        *seconds,
		"trace":          *trace,
		"rounds":         len(plain),
		"traced_rounds":  len(withTrace),
		"fingerprint":    fingerprint(),
		"durability":     durability,
		"digest_errors":  mismatches,
		"cross_checks":   crossErrs,
		"first_failures": errs,
	}
	perRound := map[string][]float64{}
	for _, r := range plain {
		perRound["setup_s"] = append(perRound["setup_s"], r.setup.Seconds())
		perRound["backup_MBps"] = append(perRound["backup_MBps"], ratio(float64(r.backup.bytes)/1e6, r.backup.wall.Seconds()))
		perRound["restore_MBps"] = append(perRound["restore_MBps"], ratio(float64(r.restore.bytes)/1e6, r.restore.wall.Seconds()))
	}
	info["per_round"] = perRound
	var metrics metricSet
	if traced {
		metrics = perLayer(withTrace, plain)
		spanFile := filepath.Join(*out, "trace-"+spec.name+".jsonl")
		if err := writeSpans(spanFile, info, withTrace[0].spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			info["span_file"] = spanFile
		}
	} else {
		var samples map[string]any
		metrics, samples = endToEnd(plain)
		info["samples"] = samples
	}
	emit(map[string]any{"info": info})
	emit(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})
	if !correct {
		return 1
	}
	return 0
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

// fingerprint identifies the hardware and build a result was measured
// on, so comparisons can refuse results from different machines.
func fingerprint() map[string]any {
	return map[string]any{
		"cpu":          cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"goarch":       runtime.GOARCH,
		"go":           runtime.Version(),
		"gf256_kernel": gf256.New().Kernel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
