package forecast

import "testing"

// BenchmarkFitHWT is one parameter estimation at the registry's default
// shape: 192 retained observations (4 × period 48), default evaluation
// budget. "global" is the Random-Restart Nelder-Mead search a series'
// first estimation runs; "adapted" is the local descent from the
// incumbent parameters every later re-estimation runs.
func BenchmarkFitHWT(b *testing.B) {
	history := householdSeries(7, 0, 0, 192)
	periods := []int{48}
	incumbent, _, err := FitHWT(history, periods, FitConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		cfg  FitConfig
	}{
		{"global", FitConfig{}},
		{"adapted", FitConfig{Estimator: &adaptation{prior: incumbent.Params()}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			evals := 0
			for i := 0; i < b.N; i++ {
				_, res, err := FitHWT(history, periods, bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				evals += res.Evaluations
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
		})
	}
}
