package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	oar "repro"
	"repro/internal/backend"
	"repro/internal/cluster"
)

// Common to every workload (see README.md): three replicas of the OAR
// backend, one ordering group, the kv machine, two client endpoints.
const (
	replicas  = 3
	endpoints = 2
	keys      = 1024
	valueSize = 16
	theta     = 0.99
)

// reply is what the load generator keeps of an adopted reply.
type reply struct {
	result []byte
	epoch  uint64
	pos    uint64
}

// endpoint is one client connection to the system under test. In-flight
// requests are goroutines sharing an endpoint, never extra connections.
type endpoint interface {
	write(ctx context.Context, cmd []byte) (reply, error)
	read(ctx context.Context, cmd []byte) (reply, error)
}

// memEndpoint is a cluster client over memnet.
type memEndpoint struct {
	inv    backend.Invoker
	reader backend.ReadInvoker // inv's read fast path
}

func (e memEndpoint) write(ctx context.Context, cmd []byte) (reply, error) {
	r, err := e.inv.Invoke(ctx, cmd)
	return reply{result: r.Result, epoch: r.Epoch, pos: r.Pos}, err
}

func (e memEndpoint) read(ctx context.Context, cmd []byte) (reply, error) {
	r, err := e.reader.InvokeRead(ctx, cmd)
	return reply{result: r.Result, epoch: r.Epoch, pos: r.Pos}, err
}

// tcpEndpoint is a facade client over tcpnet.
type tcpEndpoint struct{ cli *oar.TCPClient }

func (e tcpEndpoint) write(ctx context.Context, cmd []byte) (reply, error) {
	r, err := e.cli.Invoke(ctx, cmd)
	return reply{result: r.Result, epoch: r.Epoch, pos: r.Pos}, err
}

func (e tcpEndpoint) read(ctx context.Context, cmd []byte) (reply, error) {
	r, err := e.cli.InvokeRead(ctx, cmd)
	return reply{result: r.Result, epoch: r.Epoch, pos: r.Pos}, err
}

// system is one booted deployment: either an in-process cluster over memnet
// or three facade servers over loopback TCP, plus its client endpoints.
type system struct {
	eps []endpoint
	// mem is set on the cluster workloads; tcp on the TCP one.
	mem *cluster.Cluster
	tcp *tcpDeployment
	// dir holds the replicas' WAL directories ("" without a WAL); stop
	// removes it.
	dir     string
	stopped bool
	// lost is what crashed replica incarnations had counted (see injectFaults).
	lost backend.Stats
}

// stop shuts the deployment down and releases its ports and WAL directory.
// It returns once every goroutine the deployment started has exited. A second
// call does nothing.
func (s *system) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	if s.mem != nil {
		s.mem.Stop()
	}
	if s.tcp != nil {
		s.tcp.stop()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir) // temp data; a leftover is harmless and ignored
	}
}

// walBytes sums the sizes of the files under the system's WAL directory.
func (s *system) walBytes() int64 {
	var total int64
	if s.dir == "" {
		return 0
	}
	_ = filepath.Walk(s.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil // a segment removed mid-walk is not an error worth reporting
	})
	return total
}

// bootCluster starts an in-process cluster over memnet with injected message
// delay 0 and two client endpoints. n is 3 everywhere except the
// single-replica baseline probe.
func bootCluster(w workloadDef, n int, tracer backend.Tracer) (*system, error) {
	sys := &system{}
	opts := cluster.Options{
		Protocol:          cluster.OAR,
		N:                 n,
		Shards:            1,
		Machine:           "kv",
		FD:                w.fd,
		FDTimeout:         w.fdTimeout,
		EpochRequestLimit: w.epochLimit,
		Tracer:            tracer,
	}
	if w.wal {
		dir, err := os.MkdirTemp("", "oar-bench-wal-")
		if err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		sys.dir = dir
		opts.WALRoot = dir
	}
	c, err := cluster.New(opts)
	if err != nil {
		sys.stop()
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	sys.mem = c
	for i := 0; i < endpoints; i++ {
		inv, err := c.NewClient()
		if err != nil {
			sys.stop()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		reader, ok := inv.(backend.ReadInvoker)
		if !ok {
			sys.stop()
			return nil, fmt.Errorf("client %d: backend has no read fast path", i)
		}
		sys.eps = append(sys.eps, memEndpoint{inv, reader})
	}
	return sys, nil
}

// tcpDeployment is three oar.ListenAndServe replicas in this process on
// loopback ports, each with its own WAL directory and stats endpoint, and two
// oar.NewTCPClient endpoints.
type tcpDeployment struct {
	cancel  context.CancelFunc
	servers sync.WaitGroup
	errs    chan error // one slot per server
	clients []*oar.TCPClient
	stats   []string // http://host:port/stats per replica
}

func (d *tcpDeployment) stop() {
	for _, c := range d.clients {
		c.Close()
	}
	d.cancel()
	d.servers.Wait()
}

// freePorts reserves n distinct loopback ports by binding and releasing them.
// oar.ListenAndServe needs every peer's address before any replica listens,
// so the ports cannot be taken from the listeners themselves.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	var held []net.Listener
	defer func() {
		for _, ln := range held {
			_ = ln.Close() // only reserved the port; nothing was written
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		held = append(held, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// bootTCP starts the deployed shape.
func bootTCP(w workloadDef) (*system, error) {
	dir, err := os.MkdirTemp("", "oar-bench-wal-")
	if err != nil {
		return nil, fmt.Errorf("wal dir: %w", err)
	}
	sys := &system{dir: dir}
	addrs, err := freePorts(2 * replicas)
	if err != nil {
		sys.stop()
		return nil, err
	}
	peers, statsAddrs := addrs[:replicas], addrs[replicas:]

	ctx, cancel := context.WithCancel(context.Background())
	d := &tcpDeployment{cancel: cancel, errs: make(chan error, replicas)}
	sys.tcp = d
	for rank := 0; rank < replicas; rank++ {
		opts := oar.ServerOptions{
			Rank:              rank,
			Peers:             peers,
			Machine:           "kv",
			SuspicionTimeout:  w.fdTimeout,
			EpochRequestLimit: w.epochLimit,
			WALDir:            filepath.Join(dir, fmt.Sprintf("r%d", rank)),
			StatsAddr:         statsAddrs[rank],
		}
		d.stats = append(d.stats, "http://"+statsAddrs[rank]+"/stats")
		d.servers.Add(1)
		go func() {
			defer d.servers.Done()
			d.errs <- oar.ListenAndServe(ctx, opts)
		}()
	}
	// A replica serves /stats only after its transport listens, so three
	// answers mean three replicas ready for clients.
	deadline := time.Now().Add(10 * time.Second)
	for rank := 0; rank < replicas; {
		if _, err := d.report(rank); err == nil {
			rank++
			continue
		}
		select {
		case err := <-d.errs:
			sys.stop()
			return nil, fmt.Errorf("server exited during boot: %w", err)
		default:
		}
		if time.Now().After(deadline) {
			sys.stop()
			return nil, fmt.Errorf("replica %d not serving /stats after 10s", rank)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < endpoints; i++ {
		cli, err := oar.NewTCPClient(oar.ClientOptions{Servers: peers, ClientIndex: i})
		if err != nil {
			sys.stop()
			return nil, fmt.Errorf("tcp client %d: %w", i, err)
		}
		d.clients = append(d.clients, cli)
		sys.eps = append(sys.eps, tcpEndpoint{cli})
	}
	return sys, nil
}

// statsClient polls the replicas' stats endpoints. It keeps no connection
// open between polls, so stopping the deployment leaves nothing behind.
var statsClient = &http.Client{
	Timeout:   2 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// report fetches one replica's /stats document.
func (d *tcpDeployment) report(rank int) (oar.ServerReport, error) {
	var rep oar.ServerReport
	resp, err := statsClient.Get(d.stats[rank])
	if err != nil {
		return rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("stats %s: %s", d.stats[rank], resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, fmt.Errorf("stats %s: %w", d.stats[rank], err)
	}
	return rep, nil
}

// boot starts the workload's deployment and preloads every key with one
// write, so that no measured read finds a key absent. Boot, listen and
// preload together are what setup_s times.
func boot(w workloadDef, tracer backend.Tracer) (*system, error) {
	var (
		sys *system
		err error
	)
	if w.tcp {
		sys, err = bootTCP(w)
	} else {
		sys, err = bootCluster(w, replicas, tracer)
	}
	if err != nil {
		return nil, err
	}
	if err := preload(sys); err != nil {
		sys.stop()
		return nil, err
	}
	return sys, nil
}

// preloadValue is what every key holds before the first generated write. Its
// "w<id>v" tag belongs to no load-generator worker.
var preloadValue = []byte("w9999v0xxxxxxxxx")

// preload writes every key once, a few requests in flight per endpoint.
func preload(sys *system) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const inflight = 8
	var wg sync.WaitGroup
	errs := make(chan error, inflight)
	for g := 0; g < inflight; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ep := sys.eps[g%len(sys.eps)]
			for k := g; k < keys; k += inflight {
				cmd := fmt.Appendf(nil, "set k%08d %s", k, preloadValue)
				if _, err := ep.write(ctx, cmd); err != nil {
					errs <- fmt.Errorf("preload key %d: %w", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}
