package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// Set-up is timed in fresh processes, so that setup_s counts what a real
// start pays: process start, heap growth and page faults. The benchmark
// re-executes its own binary with -setup-child; the child stands the
// workload up, prints "ready" and exits. Each child is timed from just before
// it is started to its ready line, and the children run one after another.
// The set-up that serves the timed window is a further, untimed one.

// setupTimeout bounds one set-up child, as launchServer bounds a server's
// start-up.
const setupTimeout = 120 * time.Second

// liveSetupArgs and shardSetupArgs are the arguments of one set-up child.
func liveSetupArgs(c liveConfig) []string {
	return []string{"-workload", "live", "-n", strconv.Itoa(c.n), "-eps", strconv.FormatFloat(c.eps, 'g', -1, 64)}
}

func shardSetupArgs(c shardConfig, seed uint64) []string {
	return []string{"-workload", "shard-tcp", "-n", strconv.Itoa(c.n), "-shards", strconv.Itoa(c.shards),
		"-eps", strconv.FormatFloat(c.eps, 'g', -1, 64), "-seed", strconv.FormatUint(seed, 10)}
}

// setupChild is the child's whole job: one set-up, then "ready" on standard
// output.
func setupChild(args []string) error {
	fs := flag.NewFlagSet("setup-child", flag.ContinueOnError)
	workload := fs.String("workload", "", "")
	n := fs.Int("n", 0, "")
	shards := fs.Int("shards", 0, "")
	eps := fs.Float64("eps", 0, "")
	seed := fs.Uint64("seed", 0, "")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *workload {
	case "live":
		s, _, err := liveSetup(liveConfig{n: *n, eps: *eps}, nil)
		if err != nil {
			return err
		}
		fmt.Println("ready")
		s.Close()
	case "shard-tcp":
		rig, _, err := shardSetup(shardConfig{n: *n, shards: *shards, eps: *eps}, *seed, false, 0)
		if err != nil {
			return err
		}
		fmt.Println("ready")
		rig.close()
	default:
		return fmt.Errorf("no set-up for workload %q", *workload)
	}
	return nil
}

// timeSetups runs reps set-up children with args, one after another, and
// returns each one's time from start to ready in seconds. A child that is
// not ready within setupTimeout is killed. Every child has exited and been
// reaped when it returns.
func timeSetups(reps int, args []string) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("set-up child: %w", err)
	}
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		cmd := exec.Command(self, append([]string{"-setup-child"}, args...)...)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		kill := time.AfterFunc(setupTimeout, func() { cmd.Process.Kill() })
		line, rerr := bufio.NewReader(out).ReadString('\n')
		t := float64(now()-t0) / 1e9
		kill.Stop()
		werr := cmd.Wait()
		if rerr != nil || line != "ready\n" || werr != nil {
			return nil, fmt.Errorf("set-up child did not get ready: %q, %v, %v", line, rerr, werr)
		}
		times = append(times, t)
	}
	return times, nil
}
