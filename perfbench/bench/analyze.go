package bench

import "slices"

// ReconcileTolerance bounds the traced demand time that the layers
// and core.self do not account for, as a share of core.serve: child
// span time lying outside its demand's core.serve span. Every child of
// a demand runs inside the handler, so more than this means spans were
// attributed to the wrong demand or the two processes' clocks disagree.
const ReconcileTolerance = 0.02

// analysis is the per-layer reading of one traced run.
type analysis struct {
	// Self is each layer's mean self time per demand (µs), Calls its
	// spans per demand.
	Self  [numLayers]float64
	Calls [numLayers]float64
	// CoreSelf is the mean handler time no child span covers (µs).
	CoreSelf           float64
	ServeP50, ServeP99 float64 // µs
	GapP50             float64 // client latency minus handler time, µs
	ServiceP50         float64 // release handler time, µs
	// ReconcileErr is the child span time outside core.serve, as a
	// share of core.serve summed over demands.
	ReconcileErr float64
	Demands      int
}

// analyze attributes the spans of every measured demand: one with a
// client span and exactly one core.serve span. Each instant of a demand is attributed to the
// deepest spans running then, split evenly among them (concurrent
// release calls of a fan-out share their overlap); an instant inside
// core.serve that no child covers is core.self. So the layers' self
// times plus core.self add up to core.serve, except for child time
// outside core.serve, which ReconcileErr reports.
func analyze(mediator, driver []Span) analysis {
	byID := map[uint64][]Span{}
	for _, s := range mediator {
		byID[s.ID] = append(byID[s.ID], s)
	}
	for _, s := range driver {
		byID[s.ID] = append(byID[s.ID], s)
	}
	var a analysis
	var serves, gaps, services []float64
	var sumServe, outside float64
	var children []Span
	var cuts []int64
	for id, spans := range byID {
		if id == 0 {
			continue
		}
		var serve, client *Span
		n := 0
		children = children[:0]
		for i := range spans {
			switch spans[i].Layer {
			case LayerServe:
				serve = &spans[i]
				n++
			case LayerClient:
				client = &spans[i]
			default:
				children = append(children, spans[i])
			}
		}
		// Warm-up demands have no client span: only measured ones count.
		if n != 1 || client == nil {
			continue
		}
		a.Demands++
		lo, hi := serve.Start, serve.End
		serves = append(serves, float64(hi-lo)/1e3)
		sumServe += float64(hi - lo)
		gaps = append(gaps, float64((client.End-client.Start)-(hi-lo))/1e3)
		cuts = append(cuts[:0], lo, hi)
		for _, c := range children {
			cuts = append(cuts, c.Start, c.End)
			a.Calls[c.Layer]++
			if c.Layer == LayerService {
				services = append(services, float64(c.End-c.Start)/1e3)
			}
		}
		slices.Sort(cuts)
		for i := 1; i < len(cuts); i++ {
			from, to := cuts[i-1], cuts[i]
			if to <= from {
				continue
			}
			depth, k := 0, 0
			for _, c := range children {
				if c.Start <= from && c.End >= to {
					switch d := c.Layer.depth(); {
					case d > depth:
						depth, k = d, 1
					case d == depth:
						k++
					}
				}
			}
			d := float64(to - from)
			switch {
			case k > 0:
				for _, c := range children {
					if c.Start <= from && c.End >= to && c.Layer.depth() == depth {
						a.Self[c.Layer] += d / float64(k)
					}
				}
				if from < lo || to > hi {
					outside += d
				}
			case from >= lo && to <= hi:
				a.CoreSelf += d
			}
		}
	}
	if a.Demands == 0 {
		return a
	}
	nd := float64(a.Demands)
	for l := range a.Self {
		a.Self[l] /= nd * 1e3
		a.Calls[l] /= nd
	}
	a.CoreSelf /= nd * 1e3
	a.ServeP50 = quantile(serves, 0.50)
	a.ServeP99 = quantile(serves, 0.99)
	a.GapP50 = quantile(gaps, 0.50)
	a.ServiceP50 = quantile(services, 0.50)
	a.ReconcileErr = outside / sumServe
	return a
}
