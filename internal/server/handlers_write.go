package server

import (
	"errors"
	"fmt"
	"net/http"

	"kfusion/internal/httpapi"
)

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) (any, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	req, err := httpapi.DecodeAppendRequest(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, &statusError{
				status: http.StatusRequestEntityTooLarge,
				err:    fmt.Errorf("%w: body exceeds %d bytes", httpapi.ErrBadBatch, s.cfg.MaxBody),
			}
		}
		return nil, fmt.Errorf("%w: invalid JSON: %v", httpapi.ErrBadBatch, err)
	}
	batch, err := httpapi.ToBatch(req.Extractions)
	if err != nil {
		return nil, err
	}
	return s.Append(batch)
}
