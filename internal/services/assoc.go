package services

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/assoc"
	"repro/internal/soap"
)

// NewAssociationService builds the association-rules Web Service, the third
// algorithm family of §1. It mines an ARFF dataset (attribute=value items)
// or raw transactions (one per line, comma-separated items):
//
//	mine(dataset | transactions, minSupport, minConfidence, maxRules)
//	    -> rules (one per line) + ruleCount
func NewAssociationService() *Service {
	return register(serviceDesc{
		Name:     "AssociationRules",
		Version:  "1.1",
		Category: "association",
		Doc:      "Association-rule mining (Apriori or FPGrowth) over ARFF datasets or raw transactions (§1).",
		Ops: []op{
			{
				Name: "mine",
				Doc:  "Mine association rules (Apriori or FPGrowth) from an ARFF dataset or raw transactions.",
				In:   []string{PartDataset, partTransactions, partAlgorithm, partMinSupport, partMinConfidence, partMaxRules},
				Out:  []string{partRules, partRuleCount, partItemsets},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					minSupport, minConfidence := 0.1, 0.9
					if v := strings.TrimSpace(parts["minSupport"]); v != "" {
						f, err := strconv.ParseFloat(v, 64)
						if err != nil || f <= 0 || f > 1 {
							return nil, &soap.Fault{Code: "soap:Client",
								String: fmt.Sprintf("minSupport must be in (0,1], got %q", v)}
						}
						minSupport = f
					}
					if v := strings.TrimSpace(parts["minConfidence"]); v != "" {
						f, err := strconv.ParseFloat(v, 64)
						if err != nil || f <= 0 || f > 1 {
							return nil, &soap.Fault{Code: "soap:Client",
								String: fmt.Sprintf("minConfidence must be in (0,1], got %q", v)}
						}
						minConfidence = f
					}
					maxRules := 0
					if v := strings.TrimSpace(parts["maxRules"]); v != "" {
						n, err := strconv.Atoi(v)
						if err != nil || n < 0 {
							return nil, &soap.Fault{Code: "soap:Client",
								String: fmt.Sprintf("maxRules must be a non-negative integer, got %q", v)}
						}
						maxRules = n
					}
					var transactions [][]string
					switch {
					case strings.TrimSpace(parts["transactions"]) != "":
						for _, line := range strings.Split(parts["transactions"], "\n") {
							line = strings.TrimSpace(line)
							if line == "" {
								continue
							}
							var t []string
							for _, item := range strings.Split(line, ",") {
								if item = strings.TrimSpace(item); item != "" {
									t = append(t, item)
								}
							}
							if len(t) > 0 {
								transactions = append(transactions, t)
							}
						}
					case strings.TrimSpace(parts["dataset"]) != "":
						d, err := parseDataset(parts, "dataset")
						if err != nil {
							return nil, err
						}
						transactions, err = assoc.TransactionsFromDataset(d)
						if err != nil {
							return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
						}
					default:
						return nil, &soap.Fault{Code: "soap:Client",
							String: "provide either a dataset (ARFF) or transactions part"}
					}
					var rules []assoc.Rule
					var itemsets int
					switch algo := strings.TrimSpace(parts["algorithm"]); algo {
					case "", "Apriori":
						ap := assoc.NewApriori()
						ap.MinSupport, ap.MinConfidence = minSupport, minConfidence
						out, err := ap.Mine(transactions)
						if err != nil {
							return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
						}
						rules, itemsets = out, len(ap.FrequentItemsets())
					case "FPGrowth":
						fp := assoc.NewFPGrowth()
						fp.MinSupport, fp.MinConfidence = minSupport, minConfidence
						out, err := fp.Mine(transactions)
						if err != nil {
							return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
						}
						rules, itemsets = out, len(fp.FrequentItemsets())
					default:
						return nil, &soap.Fault{Code: "soap:Client",
							String: fmt.Sprintf("unknown algorithm %q (want Apriori or FPGrowth)", algo)}
					}
					total := len(rules)
					if maxRules > 0 && len(rules) > maxRules {
						rules = rules[:maxRules]
					}
					lines := make([]string, len(rules))
					for i, r := range rules {
						lines[i] = r.String()
					}
					return map[string]string{
						"rules":     strings.Join(lines, "\n"),
						"ruleCount": strconv.Itoa(total),
						"itemsets":  strconv.Itoa(itemsets),
					}, nil
				},
			},
		},
	})
}

// NewAttributeSelectionService builds the attribute search-and-selection
// Web Service (§1 advertises "20 different approaches ... such as a genetic
// search operator"; §5.3 uses it to automate root-attribute choice):
//
//	getApproaches()                         -> approach names
//	rank(dataset, evaluator)                -> ranked attribute list
//	select(dataset, evaluator, search)      -> selected attribute subset
func NewAttributeSelectionService() *Service {
	return register(serviceDesc{
		Name:     "AttributeSelection",
		Version:  "1.1",
		Category: "attribute-selection",
		Doc:      "Attribute search-and-selection approaches, including the genetic search of §5.3.",
		Ops: []op{
			{
				Name: "getApproaches",
				Doc:  "List the evaluator/search approaches available.",
				Out:  []string{partApproaches},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					return map[string]string{"approaches": strings.Join(attrselApproaches(), "\n")}, nil
				},
			},
			{
				Name: "rank",
				Doc:  "Rank attributes with a single-attribute evaluator.",
				In:   []string{PartDataset, partEvaluator},
				Out:  []string{partRanking},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					d, err := parseDataset(parts, "dataset")
					if err != nil {
						return nil, err
					}
					evName, err := require(parts, "evaluator")
					if err != nil {
						return nil, err
					}
					ranking, err := rankWith(ctx, evName, d)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
					}
					var lines []string
					for i := range ranking.Columns {
						lines = append(lines, fmt.Sprintf("%s\t%.6f", ranking.Names[i], ranking.Merits[i]))
					}
					return map[string]string{"ranking": strings.Join(lines, "\n")}, nil
				},
			},
			{
				Name: "select",
				Doc:  "Select an attribute subset with an evaluator and a search strategy.",
				In:   []string{PartDataset, partEvaluator, partSearch},
				Out:  []string{partSelected},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					d, err := parseDataset(parts, "dataset")
					if err != nil {
						return nil, err
					}
					evName, err := require(parts, "evaluator")
					if err != nil {
						return nil, err
					}
					searchName, err := require(parts, "search")
					if err != nil {
						return nil, err
					}
					names, err := selectWith(ctx, evName, searchName, d)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
					}
					return map[string]string{"selected": strings.Join(names, "\n")}, nil
				},
			},
		},
	})
}
