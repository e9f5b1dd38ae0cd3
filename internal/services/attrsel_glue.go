package services

import (
	"context"

	"repro/internal/attrsel"
	"repro/internal/dataset"
)

// attrselApproaches lists the toolkit's attribute-selection approaches.
func attrselApproaches() []string { return attrsel.Approaches() }

// rankWith runs the Ranker search with a named single-attribute evaluator,
// bounded by ctx (the request's deadline).
func rankWith(ctx context.Context, evaluator string, d *dataset.Dataset) (attrsel.Ranking, error) {
	ev, err := attrsel.NewAttributeEvaluator(evaluator)
	if err != nil {
		return attrsel.Ranking{}, err
	}
	return attrsel.RankAttributes(ctx, ev, d)
}

// selectWith runs a named search with a named subset evaluator, bounded by
// ctx (the request's deadline), and returns the selected attribute names.
func selectWith(ctx context.Context, evaluator, search string, d *dataset.Dataset) ([]string, error) {
	ev, err := attrsel.NewSubsetEvaluator(evaluator)
	if err != nil {
		return nil, err
	}
	s, err := attrsel.NewSearch(search)
	if err != nil {
		return nil, err
	}
	cols, err := s.Search(ctx, ev, d)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = d.Attrs[c].Name
	}
	return names, nil
}
