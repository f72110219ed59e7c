package server

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"conquer/internal/exec"
	"conquer/internal/faultinject"
	"conquer/internal/metrics"
	"conquer/internal/qerr"
	"conquer/internal/storage"
)

// Config configures a Server.
type Config struct {
	// Tenants maps API keys onto execution profiles. At least one tenant
	// is required.
	Tenants []TenantConfig `json:"tenants"`
	// MaxConcurrent is the global execution-slot count — how many
	// queries may run simultaneously across all tenants (0 defaults to
	// GOMAXPROCS).
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxQueue bounds the admission queue: requests beyond this many
	// waiting for a slot are shed with 429 instead of queued (0 defaults
	// to 4×MaxConcurrent).
	MaxQueue int `json:"max_queue,omitempty"`
	// MemoryWatermarkRows sheds on projected memory: when the EWMA of
	// per-query buffered-row peaks times (in-flight + queued + 1)
	// crosses this row count, new work is refused (0 disables the
	// memory watermark).
	MemoryWatermarkRows int64 `json:"memory_watermark_rows,omitempty"`
	// DrainTimeout is how long Drain waits for in-flight work to finish
	// before canceling it with qerr.ErrShutdown (default 10s).
	DrainTimeout time.Duration `json:"-"`
	// Parallelism is the per-query morsel parallelism handed to each
	// tenant engine (0 = GOMAXPROCS, 1 = serial), which serves both
	// POST /v1/query and POST /v1/clean.
	Parallelism int `json:"parallelism,omitempty"`
	// QueryLog, when non-nil, receives one JSON line per request —
	// executed queries and clean evaluations (written by the engine and
	// the evaluator, tagged with tenant and queue wait via the query
	// context) and shed requests (written by the server with Shed=true).
	QueryLog *metrics.QueryLog `json:"-"`
	// Registry receives the server counters (server.admitted,
	// server.shed, server.inflight, server.queue_peak); nil defaults to
	// metrics.Default.
	Registry *metrics.Registry `json:"-"`
}

// TenantConfig is one tenant's execution profile.
type TenantConfig struct {
	// Name identifies the tenant in the query log and stats.
	Name string `json:"name"`
	// Key is the API key presented as "Authorization: Bearer <key>" or
	// "X-Api-Key: <key>".
	Key string `json:"key"`
	// Preset names the exec.Limits preset ("small", "standard", "heavy",
	// "unlimited"); default "standard". Ignored when Limits is set.
	Preset string `json:"preset,omitempty"`
	// Limits overrides Preset with an explicit budget.
	Limits *exec.Limits `json:"limits,omitempty"`
	// MaxConcurrent caps this tenant's simultaneously executing queries
	// (0 = no per-tenant cap beyond the global slots).
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// CacheBytes sizes this tenant's private query cache (0 = off): it
	// serves repeats of both POST /v1/query and POST /v1/clean.
	CacheBytes int64 `json:"cache_bytes,omitempty"`
	// Faults arms deterministic storage faults for this tenant only: the
	// tenant is served from a private clone of the database with an
	// internal/faultinject schedule installed, so a faulted tenant
	// degrades without touching healthy tenants' data path.
	Faults []FaultRule `json:"faults,omitempty"`
}

// FaultRule is the JSON/flag form of a faultinject.Rule.
type FaultRule struct {
	// Table the rule applies to ("" for any).
	Table string `json:"table,omitempty"`
	// Op is the storage operation ("scan", "insert", "clone",
	// "create-table"; "" for any).
	Op string `json:"op,omitempty"`
	// N is the 1-based matching call the rule first fires on.
	N int `json:"n,omitempty"`
	// Error selects the injected failure: a qerr keyword ("budget",
	// "candidates", "internal", "model") injects that taxonomy error so
	// the ladder and the status table react as they would to the real
	// condition; any other text becomes an internal storage failure
	// wrapping qerr.ErrInternal (mapped to 500).
	Error string `json:"error,omitempty"`
}

// rule converts the wire form into a faultinject.Rule.
func (f FaultRule) rule() faultinject.Rule {
	var err error
	switch f.Error {
	case "budget":
		err = fmt.Errorf("injected fault: %w", qerr.ErrBudgetExceeded)
	case "candidates":
		err = fmt.Errorf("injected fault: %w", qerr.ErrTooManyCandidates)
	case "model":
		err = fmt.Errorf("injected fault: %w", qerr.ErrBadModel)
	case "internal", "":
		err = fmt.Errorf("injected storage fault: %w", qerr.ErrInternal)
	default:
		err = fmt.Errorf("injected storage fault %q: %w", f.Error, qerr.ErrInternal)
	}
	return faultinject.Rule{Table: f.Table, Op: storage.Op(f.Op), N: f.N, Err: err}
}

// Preset resolves a named exec.Limits profile. The presets trade
// per-query cost ceilings against query expressiveness: "small" suits
// interactive dashboards, "heavy" suits analytical tenants, "unlimited"
// imposes nothing (trusted internal callers only).
func Preset(name string) (exec.Limits, error) {
	switch name {
	case "small":
		return exec.Limits{
			Timeout:         2 * time.Second,
			MaxBufferedRows: 200_000,
			MaxOutputRows:   50_000,
			MaxCandidates:   100_000,
			MaxSamples:      1_000,
		}, nil
	case "", "standard":
		return exec.Limits{
			Timeout:         10 * time.Second,
			MaxBufferedRows: 2_000_000,
			MaxOutputRows:   500_000,
			MaxCandidates:   1_000_000,
			MaxSamples:      10_000,
		}, nil
	case "heavy":
		return exec.Limits{
			Timeout:         60 * time.Second,
			MaxBufferedRows: 20_000_000,
			MaxOutputRows:   5_000_000,
			MaxCandidates:   4 << 20,
			MaxSamples:      100_000,
		}, nil
	case "unlimited":
		return exec.Limits{}, nil
	}
	return exec.Limits{}, fmt.Errorf("server: unknown limits preset %q", name)
}

// LoadTenants parses a tenant-config JSON document:
//
//	{"tenants": [{"name": "acme", "key": "acme-key", "preset": "standard",
//	              "max_concurrent": 4,
//	              "faults": [{"table": "lineitem", "op": "scan", "n": 100}]}]}
func LoadTenants(r io.Reader) ([]TenantConfig, error) {
	var doc struct {
		Tenants []TenantConfig `json:"tenants"`
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("server: parsing tenant config: %w", err)
	}
	if len(doc.Tenants) == 0 {
		return nil, fmt.Errorf("server: tenant config declares no tenants")
	}
	return doc.Tenants, nil
}

// LoadTenantsFile is LoadTenants over a file path.
func LoadTenantsFile(path string) ([]TenantConfig, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("server: opening tenant config: %w", err)
	}
	defer f.Close()
	return LoadTenants(f)
}
