//go:build unix

package ampc_test

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

func init() { startProcFleet = newProcFleet }

// procFleet drives real shardd processes: kill is SIGKILL, restart
// re-spawns the binary on the server's original port, pause and resume are
// SIGSTOP and SIGCONT.
type procFleet struct {
	bin     string
	sc      scenario
	stderr  *os.File // every child's stderr, logged when the cell fails
	addrs   []string
	mu      sync.Mutex  // held by every chaos method: Close races them when a cell hangs
	procs   []*exec.Cmd // server i's latest process; reaped once ProcessState is set
	spawned []*exec.Cmd // every child ever started
}

// newProcFleet starts sc.Servers shardd processes on free loopback ports. When
// the cell ends it checks every child was reaped and, if it failed, logs stderr.
func newProcFleet(t *testing.T, bin string, sc scenario) (chaosFleet, error) {
	stderr, err := os.Create(filepath.Join(t.TempDir(), "shardd.log"))
	if err != nil {
		return nil, err
	}
	f := &procFleet{bin: bin, sc: sc, stderr: stderr, addrs: make([]string, sc.Servers), procs: make([]*exec.Cmd, sc.Servers)}
	t.Cleanup(func() {
		for _, cmd := range f.spawned {
			if cmd.ProcessState == nil {
				t.Errorf("shardd pid %d not reaped after Close", cmd.Process.Pid)
			}
		}
		if t.Failed() {
			out, _ := os.ReadFile(stderr.Name())
			t.Logf("shardd stderr:\n%s", out)
		}
		stderr.Close()
	})
	for i := range f.addrs {
		if f.addrs[i], err = f.spawn(i, "127.0.0.1:0"); err != nil {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// spawn launches server i on addr and returns the address it bound, which
// shardd prints on stdout once its listener is up.
func (f *procFleet) spawn(i int, addr string) (string, error) {
	args := []string{"-listen", addr, "-quiet"}
	if d := f.sc.Latency[i]; d > 0 {
		args = append(args, "-fault-latency", d.String())
	}
	cmd := exec.Command(f.bin, args...)
	cmd.Stderr = f.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", fmt.Errorf("spawn shardd %d: %w", i, err)
	}
	f.spawned = append(f.spawned, cmd)
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		kill(cmd)
		return "", fmt.Errorf("shardd %d exited before reporting its address: %v", i, err)
	}
	f.procs[i] = cmd
	return strings.TrimSpace(line), nil
}

// kill SIGKILLs and reaps cmd; SIGKILL lands on a SIGSTOPped process too.
func kill(cmd *exec.Cmd) error {
	err := cmd.Process.Kill()
	cmd.Wait()
	return err
}

func (f *procFleet) Addrs() []string { return f.addrs }

func (f *procFleet) Kill(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.procs[i].ProcessState != nil {
		return fmt.Errorf("shardd %d already killed", i)
	}
	return kill(f.procs[i])
}

func (f *procFleet) Restart(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.procs[i].ProcessState == nil {
		return fmt.Errorf("shardd %d still running", i)
	}
	_, err := f.spawn(i, f.addrs[i])
	return err
}

func (f *procFleet) Pause(i int) error  { return f.signal(i, syscall.SIGSTOP) }
func (f *procFleet) Resume(i int) error { return f.signal(i, syscall.SIGCONT) }

func (f *procFleet) signal(i int, sig syscall.Signal) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.procs[i].ProcessState != nil {
		return fmt.Errorf("shardd %d is killed, cannot send %v", i, sig)
	}
	return syscall.Kill(f.procs[i].Process.Pid, sig)
}

// Close kills and reaps every running child.
func (f *procFleet) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var errs []error
	for _, cmd := range f.procs {
		if cmd != nil && cmd.ProcessState == nil {
			errs = append(errs, kill(cmd))
		}
	}
	return errors.Join(errs...)
}
