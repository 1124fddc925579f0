// Package parallel is a fixture stand-in for scdc/internal/parallel: the
// analyzer matches the pool helpers by package name, so the signatures —
// not the implementations — are what matters here.
package parallel

func ForEach(n, workers int, fn func(worker, i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(0, i); err != nil {
			return err
		}
	}
	return nil
}

func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	_ = ForEach(n, workers, func(_, i int) error {
		out[i] = fn(i)
		return nil
	})
	return out
}
