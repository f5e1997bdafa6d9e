// Package httpapi is the wire contract of the kfserved fusion service: the
// versioned route set, the JSON request/response DTOs, and the typed errors
// both sides of the HTTP boundary dispatch on. The server (internal/server)
// and the typed Go client (kfusion/client) import THIS package for every
// shape that crosses the wire, so the two cannot drift: a field added here
// is marshalled by one side and unmarshalled by the other in the same
// release, and an error code minted here maps to the same sentinel in both
// processes.
//
// # Routes
//
//	GET  /healthz               liveness (200 as long as the process serves)
//	GET  /readyz                readiness (503 until hydration completes)
//	GET  /v1/status             generation counters and method binding
//	GET  /v1/items/{id}         fused posteriors of one data item
//	GET  /v1/triples?...        fused posteriors filtered by subject/predicate
//	POST /v1/append             journal + apply one extraction batch
//
// {id} is a data item in kb.DataItem.String form — "subject#predicate" —
// path-escaped by the caller (ItemPath does it for you).
//
// # Errors
//
// Error responses carry an ErrorResponse body whose Code is one of the
// Code* constants. SentinelForCode maps a code back to the matching
// sentinel error (ErrNotFound, ErrBadBatch, ErrNotReady, ErrBusy,
// ErrBadRequest), which the client wraps so callers dispatch with
// errors.Is — never by string or identity comparison (the kflint/typederr
// analyzer enforces this tree-wide).
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/url"
	"strconv"

	"kfusion/internal/extract"
	"kfusion/internal/fusion"
	"kfusion/internal/kfio"
)

// Version is the API version prefix of every data route.
const Version = "v1"

// Route paths. The two probe routes are unversioned by convention
// (orchestrators hardcode them); the data routes live under /v1.
const (
	PathHealthz = "/healthz"
	PathReadyz  = "/readyz"
	PathStatus  = "/" + Version + "/status"
	PathItems   = "/" + Version + "/items/"
	PathTriples = "/" + Version + "/triples"
	PathAppend  = "/" + Version + "/append"
)

// ItemPath returns the read-path URL path for one data item, path-escaping
// the "subject#predicate" id so Freebase-style subjects (which contain '/')
// survive routing.
func ItemPath(subject, predicate string) string {
	return PathItems + url.PathEscape(subject+"#"+predicate)
}

// Typed errors of the serving contract. The server maps each to one HTTP
// status + ErrorResponse code; the client rebuilds the sentinel from the
// code and wraps it, so errors.Is(err, httpapi.ErrNotFound) holds across
// the process boundary. Producers always wrap (never return bare), which is
// why identity comparison is a contract violation.
var (
	// ErrNotFound reports a route or data item the server does not have.
	ErrNotFound = errors.New("httpapi: not found")
	// ErrBadBatch reports an append body the server refused: malformed
	// JSON, an oversized body, an unparsable extraction, or an empty batch.
	ErrBadBatch = errors.New("httpapi: bad batch")
	// ErrNotReady reports a request that arrived before hydration finished
	// (or after the server began shutting down); retry with backoff.
	ErrNotReady = errors.New("httpapi: not ready")
	// ErrBusy reports an append rejected because another append holds the
	// single-writer slot; retry once it completes.
	ErrBusy = errors.New("httpapi: append in progress")
	// ErrBadRequest reports a malformed read request (bad item id, bad
	// query parameter).
	ErrBadRequest = errors.New("httpapi: bad request")
)

// ErrorResponse codes.
const (
	CodeNotFound   = "not_found"
	CodeBadBatch   = "bad_batch"
	CodeNotReady   = "not_ready"
	CodeBusy       = "busy"
	CodeBadRequest = "bad_request"
	CodeInternal   = "internal"
)

// SentinelForCode returns the typed error a wire code stands for, or nil
// for CodeInternal and unknown codes (the client reports those as plain
// status errors).
func SentinelForCode(code string) error {
	switch code {
	case CodeNotFound:
		return ErrNotFound
	case CodeBadBatch:
		return ErrBadBatch
	case CodeNotReady:
		return ErrNotReady
	case CodeBusy:
		return ErrBusy
	case CodeBadRequest:
		return ErrBadRequest
	}
	return nil
}

// CodeForError returns the wire code for a (possibly wrapped) typed error,
// or CodeInternal when err matches no sentinel.
func CodeForError(err error) string {
	switch {
	case errors.Is(err, ErrNotFound):
		return CodeNotFound
	case errors.Is(err, ErrBadBatch):
		return CodeBadBatch
	case errors.Is(err, ErrNotReady):
		return CodeNotReady
	case errors.Is(err, ErrBusy):
		return CodeBusy
	case errors.Is(err, ErrBadRequest):
		return CodeBadRequest
	}
	return CodeInternal
}

// ErrorResponse is the body of every non-2xx data response.
type ErrorResponse struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Extraction is the wire form of one extraction — the kfio JSONL record
// itself, so a JSONL feed wraps into an AppendRequest with nothing but
// `jq -s '{extractions: .}'` and the two serializations cannot drift.
// kfio.RecordOf builds one from a pipeline extraction.
type Extraction = kfio.ExtractionRecord

// ToBatch converts a wire batch, reporting the first unparsable record
// wrapped in ErrBadBatch.
func ToBatch(es []Extraction) ([]extract.Extraction, error) {
	out := make([]extract.Extraction, 0, len(es))
	for i := range es {
		x, err := es[i].ToExtraction()
		if err != nil {
			return nil, &BadBatchError{Index: i, Reason: err.Error()}
		}
		out = append(out, x)
	}
	return out, nil
}

// BadBatchError is ErrBadBatch with the offending record's position; it
// unwraps to the sentinel so errors.Is(err, ErrBadBatch) holds.
type BadBatchError struct {
	Index  int
	Reason string
}

func (e *BadBatchError) Error() string {
	return "httpapi: bad batch: extraction " + strconv.Itoa(e.Index) + ": " + e.Reason
}

func (e *BadBatchError) Unwrap() error { return ErrBadBatch }

// FusedTriple is the wire form of one fused posterior row. Probability is
// the exact float64 the fusion engine computed: encoding/json renders
// float64 in shortest round-trip form, so a read over HTTP is bit-for-bit
// the in-process result.
type FusedTriple struct {
	Subject   string `json:"s"`
	Predicate string `json:"p"`
	Object    string `json:"o"`
	// Probability is the predicted truthfulness in [0,1], -1 when the
	// provenance filters removed all evidence (Predicted false).
	Probability     float64 `json:"prob"`
	Predicted       bool    `json:"predicted"`
	Provenances     int     `json:"provenances"`
	ItemProvenances int     `json:"item_provenances"`
	Extractors      int     `json:"extractors"`
}

// FromFused converts a fusion output row to the wire form.
func FromFused(t fusion.FusedTriple) FusedTriple {
	return FusedTriple{
		Subject:         string(t.Triple.Subject),
		Predicate:       string(t.Triple.Predicate),
		Object:          t.Triple.Object.String(),
		Probability:     t.Probability,
		Predicted:       t.Predicted,
		Provenances:     t.Provenances,
		ItemProvenances: t.ItemProvenances,
		Extractors:      t.Extractors,
	}
}

// ItemResponse is the GET /v1/items/{id} body: every fused candidate value
// of one data item, in the generation's deterministic result order.
type ItemResponse struct {
	Subject    string        `json:"s"`
	Predicate  string        `json:"p"`
	Generation int           `json:"generation"`
	Triples    []FusedTriple `json:"triples"`
}

// TriplesResponse is the GET /v1/triples body. Total counts the matches
// before the limit was applied, so a truncated page is detectable.
type TriplesResponse struct {
	Generation int           `json:"generation"`
	Total      int           `json:"total"`
	Triples    []FusedTriple `json:"triples"`
}

// AppendRequest is the POST /v1/append body.
type AppendRequest struct {
	Extractions []Extraction `json:"extractions"`
}

// DecodeAppendRequest reads and decodes a POST /v1/append body. A body in
// the shape the client sends — the extractions array alone, every record in
// kfio.RecordDecoder's fast shape — is decoded without reflection through a
// per-request symbol table. Anything else, a read error included, goes to
// encoding/json's streaming decoder over the same bytes, so which bodies are
// accepted (down to trailing bytes after the first JSON value), what they
// decode to and every error are encoding/json's.
func DecodeAppendRequest(body io.Reader) (AppendRequest, error) {
	read, err := io.ReadAll(body)
	if err == nil {
		if req, ok := decodeAppendFast(read); ok {
			return req, nil
		}
	}
	var req AppendRequest
	err = json.NewDecoder(io.MultiReader(bytes.NewReader(read), body)).Decode(&req)
	return req, err
}

func decodeAppendFast(b []byte) (req AppendRequest, ok bool) {
	i := 0
	for _, tok := range []string{"{", `"extractions"`, ":", "["} {
		if i = after(b, i, tok); i < 0 {
			return req, false
		}
	}
	var dec kfio.RecordDecoder
	for {
		rec, end, ok := dec.Decode(b, i)
		if !ok {
			return req, false
		}
		req.Extractions = append(req.Extractions, rec)
		if i = after(b, end, ","); i < 0 {
			i = end
			break
		}
	}
	for _, tok := range []string{"]", "}"} {
		if i = after(b, i, tok); i < 0 {
			return req, false
		}
	}
	return req, after(b, i, "") == len(b)
}

// after returns the index just past tok when tok is what follows any JSON
// whitespace at b[i:], and -1 otherwise.
func after(b []byte, i int, tok string) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	if len(b)-i < len(tok) || string(b[i:i+len(tok)]) != tok {
		return -1
	}
	return i + len(tok)
}

// AppendResponse reports the generation the append published.
type AppendResponse struct {
	// Generation is the published generation (the store's batch count).
	Generation int `json:"generation"`
	// Added is the number of extractions folded in.
	Added int `json:"added"`
	// Triples is the fused triple count of the new generation.
	Triples int `json:"triples"`
	// Rounds is the EM round count of the re-fuse.
	Rounds int `json:"rounds"`
}

// StatusResponse is the GET /v1/status body.
type StatusResponse struct {
	Method     string `json:"method"`
	Ready      bool   `json:"ready"`
	Generation int    `json:"generation"`
	Consumed   int    `json:"consumed"`
	Triples    int    `json:"triples"`
}

// ReadyResponse is the GET /readyz body.
type ReadyResponse struct {
	Ready      bool `json:"ready"`
	Generation int  `json:"generation"`
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status string `json:"status"`
}
