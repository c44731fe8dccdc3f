package main

import (
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// environment is recorded in every result so a number can be traced to the
// machine, the commit and the run constants that produced it.
type environment struct {
	Commit     string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	FSType     string  `json:"fs_type"`
	Floors     floors  `json:"floors"`
	Constants  runInfo `json:"constants"`
}

type runInfo struct {
	Clients         int     `json:"clients"`
	Seconds         float64 `json:"seconds"`
	WarmupS         float64 `json:"warmup_s"`
	WindowS         float64 `json:"window_s"`
	LogPhaseS       float64 `json:"log_phase_s"`
	Seed            int64   `json:"seed"`
	CheckpointEvery float64 `json:"checkpoint_every_s"`
	FlushPolicy     string  `json:"flush_policy"`
	SetupReps       int     `json:"setup_reps"`
	PageCache       string  `json:"page_cache"`
}

func describeEnv(cfg runCfg, fl floors) environment {
	window := cfg.seconds
	return environment{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		FSType:     fsType(cfg.dir),
		Floors:     fl,
		Constants: runInfo{
			Clients: clients, Seconds: cfg.seconds, WarmupS: window * warmupFrac, WindowS: window,
			LogPhaseS: cfg.seconds * logFrac, Seed: cfg.seed, CheckpointEvery: window / checkpointsPerWindow,
			FlushPolicy: flushPolicy, SetupReps: cfg.setups,
			PageCache: "every data set (at most 48 MB) fits the OS page cache; area reads are page-cache hits",
		},
	}
}

// gitCommit names the commit when the run happens inside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
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

var fsNames = map[int64]string{
	0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
	0x794c7630: "overlayfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// checkFree refuses to start on a nearly full disk: the log never truncates
// (~16 KB per commit), so a commit run can write most of a gigabyte.
func checkFree(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return fmt.Errorf("statfs %s: %w", dir, err)
	}
	if free := int64(st.Bavail) * int64(st.Bsize); free < minFreeBytes {
		return fmt.Errorf("%s has %d MB free; the benchmark needs %d MB", dir, free>>20, int64(minFreeBytes)>>20)
	}
	return nil
}

// removeOnSignal deletes the run's directory if the process is interrupted
// (the normal exit paths remove it with a defer). The returned function ends
// the watch and joins its goroutine.
func removeOnSignal(dir string) (stop func()) {
	ch := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		defer close(done)
		if _, interrupted := <-ch; interrupted {
			os.RemoveAll(dir)
			os.Exit(130)
		}
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
		<-done
	}
}
