package front

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/serve"
)

// WorkerReload is one worker's row in a rolling-reload report.
type WorkerReload struct {
	Worker string `json:"worker"`
	// State is "reloaded", "failed", or "skipped" (the rollout halted
	// before reaching this worker).
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// ReloadReport is the POST /v1/reload response document. Status is
// "reloaded" when every worker swapped, "partial" when the rollout
// halted — the per-worker rows then say exactly how far it got.
type ReloadReport struct {
	Status  string         `json:"status"`
	Workers []WorkerReload `json:"workers"`
}

// handleReload rolls the fleet's registries one worker at a time:
// drain the worker's front-side gate (in-flight sub-requests finish,
// new ones queue behind the drain), POST its /v1/reload, undrain, move
// on. The first failure halts the rollout — half the fleet on the new
// registry and half on the old is a state the operator must know about
// before the front keeps pushing — and the report marks the remaining
// workers "skipped". Rollouts are serialized; a concurrent reload is a
// 409.
func (f *Front) handleReload(w http.ResponseWriter, r *http.Request) {
	if !f.reloadMu.TryLock() {
		serve.WriteJSONError(w, http.StatusConflict,
			errors.New("a rolling reload is already in progress"))
		return
	}
	defer f.reloadMu.Unlock()

	report := ReloadReport{Status: "reloaded"}
	traceID := serve.TraceIDFrom(r.Context())
	halted := false
	for _, ws := range f.workers {
		row := WorkerReload{Worker: ws.w.Name, State: "reloaded"}
		if halted {
			row.State = "skipped"
		} else if err := f.reloadWorker(r.Context(), ws, traceID); err != nil {
			row.State, row.Error = "failed", err.Error()
			halted = true
		}
		report.Workers = append(report.Workers, row)
	}
	status := http.StatusOK
	if halted {
		report.Status = "partial"
		status = http.StatusInternalServerError
	}
	serve.WriteJSON(w, status, report)
}

// reloadWorker quiesces and reloads one worker. The gate is undrained
// on every path — a worker whose rebuild failed keeps serving its old
// registry, which is exactly the atomic-swap guarantee the workers
// already make.
func (f *Front) reloadWorker(ctx context.Context, ws *workerState, traceID string) error {
	drainCtx, cancel := context.WithTimeout(ctx, f.cfg.DrainTimeout)
	err := ws.gate.Drain(drainCtx)
	cancel()
	if err != nil {
		return fmt.Errorf("draining in-flight requests: %w", err)
	}
	defer ws.gate.Undrain()

	reloadCtx, cancel := context.WithTimeout(ctx, f.cfg.ReloadTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reloadCtx, http.MethodPost, ws.w.URL+"/v1/reload", nil)
	if err != nil {
		return err
	}
	req.Header.Set(serve.TraceIDHeader, traceID)
	resp, err := f.client.Do(req)
	if err != nil {
		f.SetLive(ws.w.Name, false)
		return fmt.Errorf("reload request: %w", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("worker answered %d: %s", resp.StatusCode, errExcerpt(body))
	}
	f.SetLive(ws.w.Name, true)
	return nil
}
