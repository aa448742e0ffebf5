// Package profiling writes the standard CPU and allocation profiles of
// a regeneration run, so it can be fed straight to `go tool pprof`.
package profiling

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling into cpu and arranges an allocation
// profile into mem; an empty path skips that profile. Call the returned
// stop once the run is over.
func Start(cpu, mem string) (stop func() error, err error) {
	var f *os.File
	if cpu != "" {
		if f, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if f != nil {
			pprof.StopCPUProfile()
			errs = append(errs, f.Close())
		}
		if mem != "" {
			errs = append(errs, writeAllocs(mem))
		}
		return errors.Join(errs...)
	}, nil
}

func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile reflects live + cumulative allocs accurately
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	return errors.Join(err, f.Close())
}
