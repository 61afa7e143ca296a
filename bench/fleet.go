package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/svc"
	"repro/internal/svc/api"
	"repro/internal/svc/client"
)

// workerPoll caps a fleet worker's idle wait between lease polls. The
// service's hint is 500 ms, which would add a random 0–500 ms to every
// repetition (the workers idle between campaigns); the cap keeps that
// phase noise below 1% of a repetition without hiding any per-shard
// cost.
const workerPoll = 25 * time.Millisecond

// statusPoll is how often the benchmark's client asks for a campaign's
// state between Submit and Results.
const statusPoll = 5 * time.Millisecond

// fleet is the embedded campaign service of the fleet-service workload:
// a svc.Service on a loopback listener, nworkers in-process
// dist.RunWorkers, and one client.
type fleet struct {
	svc  *svc.Service
	srv  *http.Server
	url  string
	cl   *client.Client
	logs *core.LogsRepo
	dir  string
	tr   *tracer

	stop    context.CancelFunc
	workers sync.WaitGroup
	errMu   sync.Mutex
	err     error // first worker or server failure

	lastID string
}

// startFleet opens spool, index and logs under dir, starts the service
// on 127.0.0.1:0 and attaches nworkers workers (none when the benchmark
// itself plays the worker).
func startFleet(dir string, nworkers int) (*fleet, error) {
	logs, err := core.NewLogsRepo(filepath.Join(dir, "logs"))
	if err != nil {
		return nil, err
	}
	spool, err := svc.OpenSpool(filepath.Join(dir, "spool"))
	if err != nil {
		return nil, err
	}
	index, err := fault.NewResultIndex(filepath.Join(dir, "index"))
	if err != nil {
		return nil, err
	}
	s, err := svc.New(svc.Options{
		Logs: logs, Spool: spool, Index: index, Resolve: cli.Resolve,
		ShardSize: shardSize, LeaseTTL: 10 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	f := &fleet{
		svc: s, srv: &http.Server{Handler: s.Handler()},
		url: "http://" + ln.Addr().String(), logs: logs, dir: dir,
	}
	f.cl = client.New(f.url)
	ctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	f.workers.Add(1)
	go func() {
		defer f.workers.Done()
		if err := f.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			f.fail(err)
		}
	}()
	for i := 0; i < nworkers; i++ {
		id := "w" + strconv.Itoa(i)
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			err := dist.RunWorker(ctx, f.url, dist.WorkerOptions{ID: id, Resolve: cli.Resolve, Poll: workerPoll})
			if err != nil && !errors.Is(err, context.Canceled) {
				f.fail(fmt.Errorf("worker %s: %w", id, err))
			}
		}()
	}
	return f, nil
}

func (f *fleet) fail(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
}

func (f *fleet) failure() error {
	f.errMu.Lock()
	defer f.errMu.Unlock()
	return f.err
}

// close stops the workers, the listener and the service, and waits for
// every goroutine it started.
func (f *fleet) close() error {
	f.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	f.workers.Wait()
	f.svc.Close()
	if werr := f.failure(); werr != nil {
		return werr
	}
	return err
}

// submit posts the campaign with the durable-artifact options of a
// production submission.
func (f *fleet) submit(ctx context.Context, cfg core.CampaignConfig) (api.CampaignStatus, error) {
	return f.cl.Submit(ctx, api.SubmitRequest{
		Options: api.SubmitOptions{Journal: true, Trace: true},
		Config:  cfg,
	})
}

// await polls the campaign to a terminal state and fetches its results;
// it returns the number of API calls it made.
func (f *fleet) await(ctx context.Context, id string) (api.ResultsResponse, int, error) {
	calls := 0
	for {
		if err := f.failure(); err != nil {
			return api.ResultsResponse{}, calls, err
		}
		st, err := f.cl.Get(ctx, id)
		calls++
		if err != nil {
			return api.ResultsResponse{}, calls, err
		}
		if api.TerminalState(st.State) {
			if st.State != api.StateDone {
				return api.ResultsResponse{}, calls, fmt.Errorf("campaign %s ended %s: %s", id, st.State, st.Error)
			}
			break
		}
		select {
		case <-ctx.Done():
			return api.ResultsResponse{}, calls, ctx.Err()
		case <-time.After(statusPoll):
		}
	}
	res, err := f.cl.Results(ctx, id)
	return res, calls + 1, err
}

// campaign is one repetition: Submit → terminal state → Results. The
// records handed back for checking are read from the merged logs the
// service stored.
func (f *fleet) campaign(cfg core.CampaignConfig) (repOutput, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	sp := f.tr.begin("svc", "submit→results")
	st, err := f.submit(ctx, cfg)
	if err != nil {
		sp.end()
		return repOutput{}, err
	}
	res, calls, err := f.await(ctx, st.ID)
	sp.end()
	if err != nil {
		return repOutput{}, err
	}
	if len(res.Cells) != len(cfg.Campaigns) {
		return repOutput{}, fmt.Errorf("campaign %s: results index has %d cells for %d configured", st.ID, len(res.Cells), len(cfg.Campaigns))
	}
	f.lastID = st.ID
	recs, err := f.records(st.ID, cfg)
	return repOutput{records: recs, apiCalls: calls + 1}, err
}

// records loads a finished campaign's merged per-cell logs.
func (f *fleet) records(id string, cfg core.CampaignConfig) (map[string][]core.LogRecord, error) {
	logs, err := core.NewLogsRepo(filepath.Join(f.logs.Dir(), id))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]core.LogRecord)
	for _, key := range cfg.Keys() {
		r, err := logs.Load(key)
		if err != nil {
			return nil, err
		}
		out[key] = r.Records
	}
	return out, nil
}

// checkAgainstSingleNode compares the merged per-cell log files of the
// last campaign byte for byte with a single-node core.RunConfig +
// LogsRepo.Store of the same config; it returns the first difference.
func (f *fleet) checkAgainstSingleNode(cfg core.CampaignConfig) (string, error) {
	results, err := core.RunConfig(cfg, cli.Resolve, core.Attach{Golden: core.NewGoldenCache()})
	if err != nil {
		return "", fmt.Errorf("single-node reference: %w", err)
	}
	ref, err := core.NewLogsRepo(filepath.Join(f.dir, "reference"))
	if err != nil {
		return "", err
	}
	for i, key := range cfg.Keys() {
		if err := ref.Store(key, results[i]); err != nil {
			return "", err
		}
		want, err := os.ReadFile(filepath.Join(ref.Dir(), key+".log.jsonl"))
		if err != nil {
			return "", err
		}
		got, err := os.ReadFile(filepath.Join(f.logs.Dir(), f.lastID, key+".log.jsonl"))
		if err != nil {
			return "", err
		}
		if string(got) != string(want) {
			return "fleet logs differ from single-node: " + firstDiff(key, got, want), nil
		}
	}
	return "", nil
}
