package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// envInfo is the header of every report: the numbers are only comparable
// between runs on the same core count, toolchain and code.
type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Revision   string `json:"revision"`
}

// childGOMAXPROCS is the parallelism every pass runs with. Load is sized for
// a 2-core machine: the fleet runs 2 kernel workers, the service 2 workers
// and 2 clients. They share one P because on a shared 2-core host a pass
// that used both cores competed with the parent and the OS on the second
// core and swung by 12-20% from pass to pass.
const childGOMAXPROCS = 1

func readEnv() envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: childGOMAXPROCS,
		Go:         runtime.Version(),
		CPU:        "unknown",
		Kernel:     "unknown",
		Revision:   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		e.Kernel = b.String()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			e.Revision = rev
			if modified == "true" {
				e.Revision += "+modified"
			}
		}
	}
	return e
}
