package services

import (
	"context"
	"strconv"
	"strings"

	"repro/internal/dataaccess"
	"repro/internal/soap"
)

// NewDataAccessService exposes a relational database as a Web Service in
// the OGSA-DAI style — the integration the paper names as work underway in
// §5.4:
//
//	listTables()                          -> table names
//	describe(table)                       -> schema (ARFF attribute specs)
//	query(table, columns, where, limit)   -> result as ARFF
func NewDataAccessService(db *dataaccess.Database) *Service {
	return register(serviceDesc{
		Name:     "DataAccess",
		Version:  "1.1",
		Category: "data-access",
		Doc:      "OGSA-DAI-style relational data access: list, describe and query tables as ARFF (§5.4).",
		Ops: []op{
			{
				Name: "listTables",
				Doc:  "List the relational tables available.",
				Out:  []string{partTables},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					return map[string]string{"tables": strings.Join(db.Tables(), "\n")}, nil
				},
			},
			{
				Name: "describe",
				Doc:  "Describe a table's schema.",
				In:   []string{partTable},
				Out:  []string{partSchema},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					table, err := require(parts, "table")
					if err != nil {
						return nil, err
					}
					specs, err := db.Describe(table)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
					}
					return map[string]string{"schema": strings.Join(specs, "\n")}, nil
				},
			},
			{
				Name: "query",
				Doc:  "Select/project rows from a table; result delivered as ARFF.",
				In:   []string{partTable, partColumns, partWhere, partLimit},
				Out:  []string{partArff, PartRows},
				Handle: func(ctx context.Context, parts map[string]string) (map[string]string, error) {
					table, err := require(parts, "table")
					if err != nil {
						return nil, err
					}
					q := dataaccess.Query{Table: table}
					if cols := strings.TrimSpace(parts["columns"]); cols != "" {
						for _, c := range strings.Split(cols, ",") {
							q.Columns = append(q.Columns, strings.TrimSpace(c))
						}
					}
					conds, err := dataaccess.ParseConditions(parts["where"])
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
					}
					q.Where = conds
					if lim := strings.TrimSpace(parts["limit"]); lim != "" {
						n, err := strconv.Atoi(lim)
						if err != nil || n < 0 {
							return nil, &soap.Fault{Code: "soap:Client", String: "limit must be a non-negative integer"}
						}
						q.Limit = n
					}
					text, err := db.QueryARFF(q)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Client", String: err.Error()}
					}
					res, err := db.Run(q)
					if err != nil {
						return nil, &soap.Fault{Code: "soap:Server", String: err.Error()}
					}
					return map[string]string{
						"arff": text,
						"rows": strconv.Itoa(res.NumInstances()),
					}, nil
				},
			},
		},
	})
}
