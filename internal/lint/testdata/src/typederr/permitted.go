// Package fixture holds the wrap-safe forms the typederr analyzer must
// accept, plus the comparisons it must leave alone.
package fixture

import (
	"errors"
	"io"

	"kfusion/internal/genstore"
	"kfusion/internal/httpapi"
	"kfusion/internal/kfio"
)

func isCorrupt(err error) bool {
	return errors.Is(err, genstore.ErrCorrupt)
}

func partialOffset(err error) int64 {
	var p *kfio.ErrPartialLine
	if errors.As(err, &p) {
		return p.Offset
	}
	return -1
}

// The serving sentinels dispatch the same way: errors.Is survives both the
// server-side fmt.Errorf wrapping and the client-side APIError rebuild.
func isServingNotFound(err error) bool {
	return errors.Is(err, httpapi.ErrNotFound)
}

func badBatchIndex(err error) int {
	var b *httpapi.BadBatchError
	if errors.As(err, &b) {
		return b.Index
	}
	return -1
}

// nil comparisons and identity checks against foreign sentinels (io.EOF is
// documented as never wrapped by its producers here) are untouched.
func plainChecks(err error) bool {
	if err == nil {
		return true
	}
	return err == io.EOF
}
