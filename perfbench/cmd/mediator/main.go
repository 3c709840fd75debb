// Command mediator is the benchmark's mediator process: one workload's
// fleet unit on a loopback listener, plus a control listener for the
// driver. It prints "ready <data-addr> <control-addr>" once both listen
// and drains and exits 0 on SIGTERM.
//
//	mediator -workload campaign -dir run/m1 \
//	    -release 1.0=http://127.0.0.1:9001 -release 1.1=http://127.0.0.1:9002
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wsupgrade/perfbench/bench"
)

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mediator:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mediator", flag.ContinueOnError)
	var rels listFlag
	fs.Var(&rels, "release", "deployed release as version=url (repeat; oldest first)")
	name := fs.String("workload", "", "workload: fastpath|campaign|bulk-json")
	dir := fs.String("dir", ".", "directory for the campaign's journal and event log")
	trace := fs.Bool("trace", false, "record spans at the public seams")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := bench.Workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	releases, err := bench.ParseReleases(rels)
	if err != nil {
		return err
	}
	var tracer *bench.Tracer
	if *trace {
		tracer = &bench.Tracer{}
	}
	m, err := bench.NewMediator(w, releases, *dir, tracer)
	if err != nil {
		return err
	}
	data, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = m.Close()
		return err
	}
	ctl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = data.Close()
		_ = m.Close()
		return err
	}
	dataSrv := &http.Server{Handler: m.Handler(), ReadHeaderTimeout: 5 * time.Second}
	ctlSrv := &http.Server{Handler: m.ControlHandler(), ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 2)
	go func() { errCh <- dataSrv.Serve(data) }()
	go func() { errCh <- ctlSrv.Serve(ctl) }()
	fmt.Printf("ready %s %s\n", data.Addr(), ctl.Addr())

	var serveErr error
	select {
	case serveErr = <-errCh:
	case <-ctx.Done():
	}
	drain, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = errors.Join(dataSrv.Shutdown(drain), m.Close(), ctlSrv.Shutdown(drain))
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(serveErr, err)
	}
	return err
}
