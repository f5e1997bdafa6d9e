package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"kfusion/internal/httpapi"
)

// defaultTriplesLimit caps an unlimited /v1/triples page; Total still counts
// every match, so truncation is visible to the caller.
const defaultTriplesLimit = 1000

func (s *Server) handleHealthz(_ http.ResponseWriter, _ *http.Request) (any, error) {
	return &httpapi.HealthResponse{Status: "ok"}, nil
}

func (s *Server) handleReadyz(_ http.ResponseWriter, _ *http.Request) (any, error) {
	v, err := s.view()
	if err != nil {
		return nil, err
	}
	return &httpapi.ReadyResponse{Ready: true, Generation: v.generation}, nil
}

func (s *Server) handleStatus(_ http.ResponseWriter, _ *http.Request) (any, error) {
	return s.Status(), nil
}

func (s *Server) handleItem(_ http.ResponseWriter, r *http.Request) (any, error) {
	id := r.PathValue("id")
	subject, predicate, ok := strings.Cut(id, "#")
	if !ok || subject == "" || predicate == "" {
		return nil, fmt.Errorf("%w: item id %q is not subject#predicate", httpapi.ErrBadRequest, id)
	}
	v, err := s.view()
	if err != nil {
		return nil, err
	}
	resp, ok := v.item(subject, predicate)
	if !ok {
		return nil, fmt.Errorf("%w: no fused value for item %q in generation %d", httpapi.ErrNotFound, id, v.generation)
	}
	return resp, nil
}

func (s *Server) handleTriples(_ http.ResponseWriter, r *http.Request) (any, error) {
	v, err := s.view()
	if err != nil {
		return nil, err
	}
	q := r.URL.Query()
	minProb := -1.0 // include unpredicted rows (probability -1) by default
	if raw := q.Get("min_prob"); raw != "" {
		// ParseFloat accepts "NaN" and "Inf": a threshold no probability
		// compares against, or one that silently matches nothing or everything.
		minProb, err = strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(minProb) || math.IsInf(minProb, 0) {
			return nil, fmt.Errorf("%w: min_prob %q is not a finite number", httpapi.ErrBadRequest, raw)
		}
	}
	limit := defaultTriplesLimit
	if raw := q.Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 0 {
			return nil, fmt.Errorf("%w: limit %q is not a non-negative integer", httpapi.ErrBadRequest, raw)
		}
	}
	return v.triplesQuery(q.Get("subject"), q.Get("predicate"), minProb, limit), nil
}
