//go:build unix

package main

import (
	"os"
	"syscall"
)

// sigstop freezes a shardd process: its sockets stay open but no request
// is answered until sigcont — the real-process form of Server.Pause.
func sigstop(p *os.Process) error { return p.Signal(syscall.SIGSTOP) }

// sigcont thaws a SIGSTOPped shardd process; held requests then complete.
func sigcont(p *os.Process) error { return p.Signal(syscall.SIGCONT) }
