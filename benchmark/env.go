package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"datampi/internal/diskio"
	"datampi/internal/hdfs"
)

// Every batch workload runs on the same simulated cluster shape: 2
// DataMPI processes with 2 task slots each, one mini-HDFS over both
// "nodes". The values are constants, not options: the benchmark has one
// configuration, so its numbers are comparable across commits.
const (
	benchProcs = 2
	benchSlots = 2
	hdfsBlock  = 4 << 20
)

// benchEnv is one workload's on-disk world: a private base directory
// holding per-node datanode disks (the mini-HDFS) and per-node local
// disks (spill files, checkpoint chunks).
type benchEnv struct {
	base  string
	fs    *hdfs.FileSystem
	local []*diskio.Disk
}

func newBenchEnv() (*benchEnv, error) {
	base, err := os.MkdirTemp("", tempPrefix)
	if err != nil {
		return nil, err
	}
	e := &benchEnv{base: base}
	hd := make([]*diskio.Disk, benchProcs)
	e.local = make([]*diskio.Disk, benchProcs)
	for i := 0; i < benchProcs; i++ {
		if hd[i], err = diskio.New(filepath.Join(base, fmt.Sprintf("hdfs%d", i))); err != nil {
			e.close()
			return nil, err
		}
		if e.local[i], err = diskio.New(filepath.Join(base, fmt.Sprintf("local%d", i))); err != nil {
			e.close()
			return nil, err
		}
	}
	e.fs, err = hdfs.New(hdfs.Config{BlockSize: hdfsBlock, Replication: 2}, hd)
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// cpDir is the checkpoint directory terasort_ft keeps stable across a
// crash and its restart.
func (e *benchEnv) cpDir() string { return filepath.Join(e.base, "checkpoints") }

func (e *benchEnv) close() { os.RemoveAll(e.base) }

// tempPrefix marks every directory the harness creates under TMPDIR, so
// the leak check can tell its own residue from anyone else's files.
const tempPrefix = "dmpi-benchmark-"

// residue lists what a finished workload must not leave behind: harness
// temp dirs, and the runtime's own shared-memory segment directories
// (datampi-shm-*) and blob stores (dmpi-blob-*) under /dev/shm or TMPDIR.
func residue(before map[string]bool) []string {
	var left []string
	for name := range scanResidue() {
		if !before[name] {
			left = append(left, name)
		}
	}
	return left
}

func scanResidue() map[string]bool {
	found := map[string]bool{}
	for _, dir := range []string{os.TempDir(), "/dev/shm"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range ents {
			n := e.Name()
			if strings.HasPrefix(n, tempPrefix) || strings.HasPrefix(n, "datampi-shm-") || strings.HasPrefix(n, "dmpi-blob-") {
				found[filepath.Join(dir, n)] = true
			}
		}
	}
	return found
}

// envInfo is what must be equal between two runs before their numbers are
// compared: the filesystem behind TMPDIR alone (tmpfs vs disk) changes
// every disk.* metric.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	TmpDir     string `json:"tmpdir"`
	TmpFS      string `json:"tmpdir_fs"`
}

func captureEnv(seed int64) envInfo {
	info := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Seed:       seed,
		TmpDir:     os.TempDir(),
		TmpFS:      fsType(os.TempDir()),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		info.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		info.Commit = strings.TrimSpace(string(out))
	}
	return info
}

// fsType names the filesystem holding dir from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
