package experiments

import (
	"akb/internal/extract"
	"akb/internal/fusion"
)

// CalibrationRow is one belief bucket of the calibration experiment: if the
// fused beliefs are well calibrated, the empirical precision of claims in a
// bucket tracks the bucket's mean belief (the diagnostic plot popularised
// by the Knowledge Vault paper the paper builds on).
type CalibrationRow struct {
	// Low and High bound the belief bucket [Low, High).
	Low, High float64
	// Count is the number of (item, value) pairs in the bucket.
	Count int
	// MeanBelief is the average belief of the bucket's pairs.
	MeanBelief float64
	// Precision is the fraction of the bucket's pairs that are true.
	Precision float64
}

// Calibration runs the pipeline, fuses with the FULL method (the default)
// and buckets every claimed (item, value) pair by fused belief.
func Calibration(seed int64, buckets int) []CalibrationRow {
	return CalibrationMethod(seed, buckets, nil)
}

// CalibrationMethod is Calibration for a caller-chosen fusion method (nil
// uses the pipeline default), enabling calibration comparisons.
func CalibrationMethod(seed int64, buckets int, m fusion.Method) []CalibrationRow {
	if buckets <= 0 {
		buckets = 10
	}
	cfg := seededConfig(seed)
	cfg.Method = m
	res := runPipeline(cfg)
	type acc struct {
		count   int
		beliefs float64
		correct int
	}
	accs := make([]acc, buckets)
	decisions := res.Fused().Decisions
	for i := range decisions {
		d := &decisions[i]
		entity := extract.AttrFromIRI(d.Item.Subject)
		e, ok := res.World.Entity(entity)
		if !ok {
			continue
		}
		attr := extract.AttrFromIRI(d.Item.Predicate)
		for k, vc := range d.Item.Values {
			b := d.Belief[k]
			bi := int(b * float64(buckets))
			if bi >= buckets {
				bi = buckets - 1
			}
			if bi < 0 {
				bi = 0
			}
			accs[bi].count++
			accs[bi].beliefs += b
			if res.World.IsTrue(e, attr, vc.Value.Value) {
				accs[bi].correct++
			}
		}
	}
	rows := make([]CalibrationRow, 0, buckets)
	for i, a := range accs {
		row := CalibrationRow{Low: float64(i) / float64(buckets), High: float64(i+1) / float64(buckets), Count: a.count}
		if a.count > 0 {
			row.MeanBelief = a.beliefs / float64(a.count)
			row.Precision = float64(a.correct) / float64(a.count)
		}
		rows = append(rows, row)
	}
	return rows
}
