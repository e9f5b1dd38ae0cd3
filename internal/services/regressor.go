package services

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/regress"
	"repro/internal/soap"
	"repro/internal/wire"
)

// retarget points d's class index at the attribute named in the optional
// attribute part, and checks the resulting target is numeric.
func retarget(d *dataset.Dataset, parts map[string]string) error {
	if name := optional(parts, PartAttribute); name != "" {
		a, i := d.AttributeByName(name)
		if a == nil {
			return &soap.Fault{Code: "soap:Client", String: "no attribute " + name}
		}
		d.ClassIndex = i
	}
	ca := d.ClassAttribute()
	if ca == nil || !ca.IsNumeric() {
		return &soap.Fault{Code: "soap:Client",
			String: "regression needs a numeric target attribute (set the attribute part)"}
	}
	return nil
}

// NewRegressorService builds the numeric-prediction Web Service, the
// regression sibling of the Classifier service:
//
//	getRegressors                               -> algorithm names
//	getOptions(regressor)                       -> JSON option descriptors
//	regress(dataset, regressor, options, attribute) -> training-set evaluation
//	regressBatch(dataset, regressor, options, attribute, payload) -> DMV1 block
func NewRegressorService() *Service {
	return register(serviceDesc{
		Name:     "Regressor",
		Version:  "1.0",
		Category: "regression",
		Doc:      "Numeric prediction wrapper: apply any registered regressor to an ARFF dataset, with a dmb1 batch fast path.",
		Ops: []op{
			listOp("getRegressors", "List the regression algorithms known to the service.",
				partRegressors, regress.Registry),
			optionsOp("Describe the run-time options of a regressor.", PartRegressor, regress.Registry),
			{
				Name: "regress",
				Doc: "Train the named regressor on an ARFF dataset (target = class " +
					"attribute, or the attribute part) and report its training-set fit.",
				In:  []string{PartDataset, PartRegressor, PartOptions, PartAttribute},
				Out: []string{partSummary, PartEvaluation},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					d, err := parseDataset(parts, "dataset")
					if err != nil {
						return nil, err
					}
					if err := retarget(d, parts); err != nil {
						return nil, err
					}
					r, name, err := buildFromParts(regress.Registry, parts, PartRegressor)
					if err != nil {
						return nil, err
					}
					if err := r.Train(d); err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					var ev regress.Evaluation
					if err := ev.TestModel(r, d); err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					summary := fmt.Sprintf("%s on %s: target %s over %d instances\nMAE %.4f  RMSE %.4f  R2 %.4f",
						name, d.Relation, d.ClassAttribute().Name, d.NumInstances(),
						ev.MAE(), ev.RMSE(), ev.R2())
					eval, err := optionsJSON(map[string]float64{
						"mae": ev.MAE(), "rmse": ev.RMSE(), "r2": ev.R2(),
					})
					if err != nil {
						return nil, err
					}
					return map[string]string{partSummary: summary, PartEvaluation: eval}, nil
				},
			},
			{
				Name: "regressBatch",
				Doc: "Train on the ARFF dataset part, then predict every row of the " +
					"dmb1 payload in one columnar pass; the reply is a DMV1 block " +
					"holding the predicted-value column.",
				In:  []string{PartDataset, PartRegressor, PartOptions, PartAttribute, PartPayload, PartEncoding},
				Out: []string{PartPayload, PartRows, PartEncoding},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					batch, err := decodeBatchPayload(parts, "regressBatch")
					if err != nil {
						return nil, err
					}
					d, err := parseDataset(parts, "dataset")
					if err != nil {
						return nil, err
					}
					if err := retarget(d, parts); err != nil {
						return nil, err
					}
					r, _, err := buildFromParts(regress.Registry, parts, PartRegressor)
					if err != nil {
						return nil, err
					}
					if err := r.Train(d); err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					values, err := regress.PredictBatch(r, batch)
					if err != nil {
						return nil, asFault(err)
					}
					res, err := wire.MarshalRegressResultBase64(&wire.RegressResult{
						Target: d.ClassAttribute().Name,
						Values: values,
					})
					return blockReply(res, err, len(values))
				},
			},
		},
	})
}
