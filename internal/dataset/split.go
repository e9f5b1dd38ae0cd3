package dataset

import (
	"fmt"
	"math/rand"
)

// StratifiedSplit partitions the dataset preserving the class distribution in
// both shares. The class attribute must be nominal.
func StratifiedSplit(d *Dataset, trainFrac float64, rng *rand.Rand) (train, test *Dataset, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("dataset: trainFrac %v out of (0,1)", trainFrac)
	}
	ca := d.ClassAttribute()
	if ca == nil || !ca.IsNominal() {
		return nil, nil, fmt.Errorf("dataset: stratified split requires a nominal class")
	}
	byClass := make([][]*Instance, ca.NumValues()+1) // last bucket: missing class
	for _, in := range d.Instances {
		v := in.Values[d.ClassIndex]
		if IsMissing(v) {
			byClass[ca.NumValues()] = append(byClass[ca.NumValues()], in)
		} else {
			byClass[int(v)] = append(byClass[int(v)], in)
		}
	}
	var trIns, teIns []*Instance
	for _, bucket := range byClass {
		rng.Shuffle(len(bucket), func(i, j int) { bucket[i], bucket[j] = bucket[j], bucket[i] })
		n := int(float64(len(bucket)) * trainFrac)
		trIns = append(trIns, bucket[:n]...)
		teIns = append(teIns, bucket[n:]...)
	}
	if len(trIns) == 0 || len(teIns) == 0 {
		return nil, nil, fmt.Errorf("dataset: stratified split leaves an empty share")
	}
	rng.Shuffle(len(trIns), func(i, j int) { trIns[i], trIns[j] = trIns[j], trIns[i] })
	rng.Shuffle(len(teIns), func(i, j int) { teIns[i], teIns[j] = teIns[j], teIns[i] })
	return d.ShallowWith(trIns), d.ShallowWith(teIns), nil
}
