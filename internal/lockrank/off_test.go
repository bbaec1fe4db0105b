//go:build !lockrank

package lockrank

import (
	"sync"
	"testing"
	"unsafe"
)

// TestDefaultBuildIsSync pins what the default build costs: the ranked
// types are their sync types, byte for byte, and Init records nothing.
func TestDefaultBuildIsSync(t *testing.T) {
	if a, b := unsafe.Sizeof(Mutex{}), unsafe.Sizeof(sync.Mutex{}); a != b {
		t.Errorf("Mutex is %d bytes, sync.Mutex %d", a, b)
	}
	if a, b := unsafe.Sizeof(RWMutex{}), unsafe.Sizeof(sync.RWMutex{}); a != b {
		t.Errorf("RWMutex is %d bytes, sync.RWMutex %d", a, b)
	}
	var m Mutex
	m.Lock() // never Init'ed: unchecked in the default build
	m.Unlock()
}
