//go:build !unix

package main

import (
	"errors"
	"os"
)

// Straggler chaos needs SIGSTOP/SIGCONT, which this platform lacks; the
// affected cell reports a chaos-action failure instead of pretending the
// pause happened. Use -fleet inproc here: Server.Pause gives the
// same held-request semantics without process signals.
var errNoStopSignal = errors.New("SIGSTOP/SIGCONT unsupported on this platform; use -fleet inproc")

func sigstop(*os.Process) error { return errNoStopSignal }

func sigcont(*os.Process) error { return errNoStopSignal }
