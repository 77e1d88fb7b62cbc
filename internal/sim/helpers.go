package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/imaging"
	"repro/internal/roadnet"
)

// basePalette is a set of well-separated vehicle colors: far apart in RGB
// so color-histogram re-identification can discriminate them, the way
// real vehicle paint does at a distance.
var basePalette = []imaging.Color{
	{R: 220, G: 40, B: 40},   // red
	{R: 40, G: 80, B: 220},   // blue
	{R: 245, G: 245, B: 245}, // white
	{R: 25, G: 25, B: 25},    // black
	{R: 240, G: 200, B: 40},  // yellow
	{R: 40, G: 170, B: 70},   // green
	{R: 160, G: 160, B: 170}, // silver
	{R: 150, G: 70, B: 20},   // brown
	{R: 240, G: 120, B: 30},  // orange
	{R: 120, G: 40, B: 160},  // purple
	{R: 40, G: 190, B: 190},  // teal
	{R: 230, G: 120, B: 160}, // pink
}

// PaletteColor returns the i-th vehicle color, cycling with a slight
// deterministic perturbation after the base palette is exhausted.
func PaletteColor(i int) imaging.Color {
	c := basePalette[i%len(basePalette)]
	round := i / len(basePalette)
	if round == 0 {
		return c
	}
	shift := uint8(round * 23)
	return imaging.Color{R: c.R ^ shift, G: c.G ^ (shift >> 1), B: c.B ^ (shift << 1)}
}

// AddDemoTraffic adds the demo deployment's vehicles to w: n palette-
// coloured vehicles driving route at seeded speeds of 12–18 m/s, departing
// 5 s apart. coral-sim and every coral-node process call it with the same
// arguments, which is what makes their traffic identical.
func AddDemoTraffic(w *World, route []roadnet.NodeID, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < n; v++ {
		err := w.AddVehicle(VehicleSpec{
			ID:       fmt.Sprintf("veh-%02d", v),
			Color:    PaletteColor(v),
			SpeedMPS: 12 + rng.Float64()*6,
			Route:    route,
			Depart:   time.Duration(v) * 5 * time.Second,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RandomRoute generates a random walk of the given number of legs
// starting at start, avoiding immediate U-turns whenever the intersection
// offers an alternative.
func RandomRoute(g *roadnet.Graph, rng *rand.Rand, start roadnet.NodeID, legs int) ([]roadnet.NodeID, error) {
	if legs < 1 {
		return nil, fmt.Errorf("sim: route needs >= 1 leg, got %d", legs)
	}
	route := []roadnet.NodeID{start}
	prev := roadnet.NodeID(-1)
	cur := start
	for i := 0; i < legs; i++ {
		neighbors := g.OutNeighbors(cur)
		if len(neighbors) == 0 {
			break
		}
		candidates := neighbors[:0:0]
		for _, n := range neighbors {
			if n != prev {
				candidates = append(candidates, n)
			}
		}
		if len(candidates) == 0 {
			candidates = neighbors // dead end: U-turn is the only option
		}
		next := candidates[rng.Intn(len(candidates))]
		route = append(route, next)
		prev, cur = cur, next
	}
	if len(route) < 2 {
		return nil, fmt.Errorf("sim: node %d has no outgoing lanes", start)
	}
	return route, nil
}
