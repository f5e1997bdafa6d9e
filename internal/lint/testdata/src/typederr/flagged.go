// Package fixture holds wrap-unsafe uses of the durability sentinels the
// typederr analyzer must flag: every producer wraps these errors, so
// identity comparison and concrete-type dispatch silently stop matching.
package fixture

import (
	"kfusion/internal/genstore"
	"kfusion/internal/httpapi"
	"kfusion/internal/kfio"
)

func eqSentinel(err error) bool {
	return err == genstore.ErrCorrupt // want `use errors\.Is`
}

func neqSentinel(err error) bool {
	return err != genstore.ErrVersion // want `use errors\.Is`
}

func switchSentinel(err error) string {
	switch err {
	case genstore.ErrVersion: // want `use errors\.Is`
		return "version"
	default:
		return "other"
	}
}

func assertPartial(err error) int64 {
	if p, ok := err.(*kfio.ErrPartialLine); ok { // want `use errors\.As`
		return p.Offset
	}
	return -1
}

func typeSwitchPartial(err error) bool {
	switch err.(type) {
	case *kfio.ErrPartialLine: // want `use errors\.As`
		return true
	}
	return false
}

// The kfserved serving sentinels cross the HTTP boundary wrapped (the
// client rebuilds them via APIError.Unwrap), so identity comparison breaks
// the moment the response is decoded.
func eqServing(err error) bool {
	return err == httpapi.ErrNotFound // want `use errors\.Is`
}

func switchServing(err error) string {
	switch err {
	case httpapi.ErrNotReady: // want `use errors\.Is`
		return "wait"
	case httpapi.ErrBusy: // want `use errors\.Is`
		return "retry"
	default:
		return "fail"
	}
}

func assertBadBatch(err error) int {
	if b, ok := err.(*httpapi.BadBatchError); ok { // want `use errors\.As`
		return b.Index
	}
	return -1
}
