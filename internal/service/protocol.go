package service

import "encoding/json"

// The coordinator protocol is five HTTP/JSON endpoints under /v1/.
// It is deliberately minimal: a worker needs nothing but the grid
// description and a stream of cell ranges, and the coordinator needs
// nothing back but batches of (index, key, payload) triples plus
// liveness pings.
//
//	GET  /v1/grid       → GridInfo
//	GET  /v1/status     → StatusResponse
//	POST /v1/claim      ClaimRequest  → ClaimResponse
//	POST /v1/result     ResultPost    → 200 (body ignored); a batch of cells
//	POST /v1/heartbeat  HeartbeatPost → 200
//
// Everything a worker computes is verifiable against the coordinator's
// expectations: GridInfo carries the grid fingerprint and the code
// version stamp, and a worker refuses to join unless both match what
// it derives locally — a version skew would poison the shared
// content-addressed cache, and a spec skew would compute the wrong
// cells. Errors are conventional HTTP status codes with a text body.

// GridInfo describes the grid a coordinator is serving. Spec is the
// CLI-level sweep description (opaque to this package; the worker
// rebuilds the identical grid from it), Cells the expanded cell count,
// Fingerprint the grid's canonical identity (sweep.Keyer), and Version
// the coordinator's code-version stamp.
type GridInfo struct {
	Spec        json.RawMessage
	Cells       int
	Fingerprint string
	Version     string
}

// ClaimRequest asks for a cell range to execute.
type ClaimRequest struct {
	Worker string // stable worker id (host+pid by default)
}

// ClaimResponse grants the half-open cell range [Lo, Hi), or reports
// that the worker should wait (ranges are outstanding elsewhere) or
// that the grid is done.
type ClaimResponse struct {
	Lo, Hi int
	Wait   bool // nothing to hand out now; poll again
	Done   bool // every cell is complete; the worker may exit
}

// ResultPost delivers a batch of completed cells: a worker posts the
// cells of its claimed range once the range ends, and whatever it has
// finished once per heartbeat interval while the range is still
// running. The coordinator checks every index before applying any of
// them — one out-of-range index rejects the whole batch and marks
// nothing done. Cells whose index is already complete, within
// the batch or from an earlier post, are acknowledged and dropped —
// results are deterministic, so duplicates are identical by
// construction.
type ResultPost struct {
	Worker string
	Cells  []ResultCell
}

// ResultCell is one completed cell of a ResultPost. Key is the cell's
// content-addressed cache key, which must match the coordinator's own
// key for Index; Payload is the encoded measurement (sweep.Payload),
// empty when Err is set.
type ResultCell struct {
	Index   int
	Key     string
	Payload json.RawMessage `json:",omitempty"`
	Err     string          `json:",omitempty"` // per-cell failure, not cached
}

// HeartbeatPost reports worker liveness. A worker whose heartbeats
// stop for longer than the coordinator's timeout is presumed dead and
// its unfinished ranges are re-queued for others.
type HeartbeatPost struct {
	Worker string
}

// StatusResponse is the coordinator's progress snapshot, served at
// GET /v1/status for dashboards and shell loops (`curl | jq`). It is
// observational only — nothing a worker needs rides on it.
type StatusResponse struct {
	// Cells is the grid size; Done counts completed cells (including
	// cached ones), Emitted the contiguous prefix already delivered.
	Cells   int
	Done    int
	Emitted int
	// Cached counts the cells prefilled from the content-addressed
	// cache before any worker joined.
	Cached int
	// Claimed counts incomplete cells currently assigned to live
	// workers; Queued counts incomplete cells waiting for a claim.
	Claimed int
	Queued  int
	Workers []WorkerStatus `json:",omitempty"`
}

// WorkerStatus is one live worker's row in StatusResponse.
type WorkerStatus struct {
	Worker string
	// HeartbeatAgeMs is the time since the worker's last contact, in
	// milliseconds (claims and result posts count as contact).
	HeartbeatAgeMs int64
	// Claimed counts the incomplete cells of the worker's spans.
	Claimed int
	// Done reports whether the worker has been told the grid finished.
	Done bool
}
