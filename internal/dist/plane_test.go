package dist_test

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/svc"
	"repro/internal/svc/api"
)

// plane puts bare shard ledgers, keyed by campaign ID, behind the
// service's own worker-route registration — the whole server these tests
// need. A lease goes to the first campaign (in ID order) that grants or
// expects a shard, else answers the last one's terminal status.
type plane map[string]*dist.Coordinator

func (p plane) Lease(worker string) (resp api.LeaseResponse) {
	ids := make([]string, 0, len(p))
	for id := range p {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		resp = p[id].Lease(worker)
		if resp.CampaignID = id; resp.Status == api.StatusShard || resp.Status == api.StatusWait {
			break
		}
	}
	return resp
}

// Changed wakes a held lease on the one campaign's changes; a plane of
// several campaigns holds no lease.
func (p plane) Changed() <-chan struct{} {
	for _, c := range p {
		if len(p) == 1 {
			return c.Changed()
		}
	}
	return nil
}
func (p plane) Heartbeat(r api.HeartbeatRequest) api.HeartbeatResponse {
	return p[r.CampaignID].Heartbeat(r)
}
func (p plane) Complete(r api.CompleteRequest) api.CompleteResponse {
	return p[r.CampaignID].Complete(r)
}
func (p plane) PushSnapshot(api.SnapshotRequest) api.SnapshotResponse {
	return api.SnapshotResponse{OK: true}
}
func (p plane) CampaignConfig(id string) (api.ConfigResponse, error) {
	resp := p[id].Config()
	resp.CampaignID = id
	return resp, nil
}

// serve starts an HTTP server over the plane, closed with the test.
func serve(t *testing.T, p svc.WorkerPlane) *httptest.Server {
	mux := http.NewServeMux()
	svc.MountWorkerPlane(mux, p)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}
