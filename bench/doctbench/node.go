package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/ids"
	"repro/internal/metrics"
)

// The tcp_closed workload's second OS process: doctbench re-executes itself
// in the node role to host node 2 and every target. Driver and node speak
// JSON lines over the node's stdin/stdout:
//
//	node → driver   nodeReady            once, when its targets are up
//	driver → node   "snap"               → one procSnap line
//	driver → node   "quit"               → one procSnap line with the
//	                                       raise_async samples, then exit 0
//
// Closing stdin ends the node too (without a reply), so a dead driver never
// leaks one.

// roleEnv selects the node role: "node:<node 1's listen address>". It is an
// environment variable, not a flag, so that the smoke test can re-execute
// the test binary, which does not take the benchmark's flags.
const roleEnv = "DOCTBENCH_ROLE"

// nodeRole reports whether this process was started as the node, and if so
// the driver's address.
func nodeRole() (driverAddr string, ok bool) {
	return strings.CutPrefix(os.Getenv(roleEnv), "node:")
}

// nodeMain runs the node role to its exit code.
func nodeMain(driverAddr string) int {
	if err := runNode(driverAddr, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "doctbench node:", err)
		return 1
	}
	return 0
}

// nodeReady is the node's first line.
type nodeReady struct {
	Addr    string
	Targets targetSet
	Group   uint64
	Members []uint64
}

// procSnap is one process's cumulative state at an instant: CPU, allocator
// and registry counters, and its handler-side sink.
type procSnap struct {
	CPUNs      int64 // user+system, getrusage(RUSAGE_SELF)
	Mallocs    uint64
	AllocBytes uint64
	Goroutines int
	Counters   map[string]int64
	Sink       sinkCounts
}

func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// snapProcess snapshots this process. mem reads runtime.MemStats, which
// stops the world, so it is only asked for at window edges.
func snapProcess(hosts []*host, s *sink, mem, withLat bool) procSnap {
	ps := procSnap{CPUNs: cpuNanos(), Goroutines: runtime.NumGoroutine(), Counters: map[string]int64{}, Sink: s.counts(withLat)}
	if mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		ps.Mallocs, ps.AllocBytes = ms.Mallocs, ms.TotalAlloc
	}
	for _, h := range hosts {
		for k, v := range h.reg.Snapshot() {
			ps.Counters[k] += v
		}
	}
	return ps
}

// add folds another process's snapshot into ps.
func (ps *procSnap) add(o procSnap) {
	ps.CPUNs += o.CPUNs
	ps.Mallocs += o.Mallocs
	ps.AllocBytes += o.AllocBytes
	for k, v := range o.Counters {
		ps.Counters[k] += v
	}
	ps.Sink.merge(o.Sink, +1)
}

// runNode hosts node 2 of a 2-node TCP cluster whose
// node 1 listens at driverAddr, then serve the control protocol.
func runNode(driverAddr string, in io.Reader, out io.Writer) error {
	reg := metrics.NewRegistry()
	tr, err := openTCP(reg)
	if err != nil {
		return err
	}
	h, err := bootTCP(2, 2, tr, map[ids.NodeID]string{1: driverAddr, 2: tr.Addr()}, reg, nil)
	if err != nil {
		return err
	}
	defer h.sys.Close()
	s := newSink(1 << 20)
	if err := registerCode(h.sys, s); err != nil {
		return err
	}
	ts, err := hostNode(h.sys, 2, s)
	if err != nil {
		return err
	}
	tcp := workloads[wlTCPClosed]
	gid, members, err := makeGroup(h.sys, tcp.groupPlacement(), map[ids.NodeID]targetSet{2: ts})
	if err != nil {
		return err
	}
	ready := nodeReady{Addr: tr.Addr(), Targets: ts, Group: uint64(gid)}
	for _, m := range members {
		ready.Members = append(ready.Members, uint64(m))
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(ready); err != nil {
		return err
	}
	hosts := []*host{h}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		switch sc.Text() {
		case "snap":
			if err := enc.Encode(snapProcess(hosts, s, false, false)); err != nil {
				return err
			}
		case "snapmem":
			if err := enc.Encode(snapProcess(hosts, s, true, false)); err != nil {
				return err
			}
		case "quit":
			return enc.Encode(snapProcess(hosts, s, true, true))
		default:
			return fmt.Errorf("node: unknown command %q", sc.Text())
		}
	}
	return sc.Err()
}

// child is the driver's handle on the node process.
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Reader
	ready nodeReady
	final *procSnap // the "quit" reply
}

// startChild re-executes this binary as the node and waits for its ready
// line.
func startChild(driverAddr string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"=node:"+driverAddr)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReaderSize(outPipe, 1<<20)}
	if err := c.read(&c.ready); err != nil {
		c.kill()
		return nil, fmt.Errorf("node process: no ready line: %w", err)
	}
	return c, nil
}

// read decodes the node's next line, bounded so a wedged node cannot hang
// the benchmark past the driver's deadline.
func (c *child) read(v any) error {
	type res struct {
		line []byte
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		line, err := c.out.ReadBytes('\n')
		ch <- res{line, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return r.err
		}
		return json.Unmarshal(r.line, v)
	case <-time.After(3 * callTimeout):
		return fmt.Errorf("node process silent for %v", 3*callTimeout)
	}
}

func (c *child) ask(cmd string) (procSnap, error) {
	var ps procSnap
	if _, err := io.WriteString(c.in, cmd+"\n"); err != nil {
		return ps, err
	}
	err := c.read(&ps)
	return ps, err
}

// snap asks the node for its cumulative state.
func (c *child) snap(mem bool) (procSnap, error) {
	if mem {
		return c.ask("snapmem")
	}
	return c.ask("snap")
}

// quit collects the node's final state and waits for it to exit 0.
func (c *child) quit() error {
	if c.final != nil {
		return nil
	}
	ps, err := c.ask("quit")
	if err != nil {
		c.kill()
		return fmt.Errorf("node process: %w", err)
	}
	c.final = &ps
	c.in.Close()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("node process exited: %w", err)
	}
	return nil
}

// stop ends the node whether or not it was asked to quit yet.
func (c *child) stop() error {
	if c.cmd.ProcessState != nil {
		return nil
	}
	return c.quit()
}

func (c *child) kill() {
	c.in.Close()
	_ = c.cmd.Process.Kill() // already-exited is fine
	_ = c.cmd.Wait()         // reap; the exit status of a killed node is noise
}
