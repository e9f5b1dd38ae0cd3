package services

// The SOAP part-name vocabulary. Every operation's In/Out lists draw
// from these constants, so two services can never drift into spelling
// the same concept differently ("dataset" vs "arff" both exist, but
// each names a distinct payload shape: parsed-relation input vs raw
// ARFF text output). TestOpPartNamesAreRegistered enforces membership:
// an op declaring a name that is not in knownPartNames fails the build
// gate, which is what forces a new part through this file — and through
// a naming review — before it reaches the wire.
const (
	PartAccuracy       = "accuracy"
	PartAlgorithm      = "algorithm"
	PartApproaches     = "approaches"
	PartArff           = "arff"
	PartAttribute      = "attribute"
	PartAttributes     = "attributes"
	PartBins           = "bins"
	PartClassifier     = "classifier"
	PartClassifiers    = "classifiers"
	PartClosed         = "closed"
	PartClusterer      = "clusterer"
	PartClusterers     = "clusterers"
	PartClusters       = "clusters"
	PartColumns        = "columns"
	PartCSV            = "csv"
	PartDataset        = "dataset"
	PartDepth          = "depth"
	PartEncoding       = "encoding"
	PartEqualFrequency = "equalFrequency"
	PartEvaluation     = "evaluation"
	PartEvaluator      = "evaluator"
	PartFilter         = "filter"
	PartFilters        = "filters"
	PartFolds          = "folds"
	PartFormat         = "format"
	PartGraph          = "graph"
	PartHeader         = "header"
	PartImage          = "image"
	PartInstances      = "instances"
	PartItemsets       = "itemsets"
	PartKind           = "kind"
	PartLabels         = "labels"
	PartLeaves         = "leaves"
	PartLimit          = "limit"
	PartMaxRules       = "maxRules"
	PartMinConfidence  = "minConfidence"
	PartMinSupport     = "minSupport"
	PartMissing        = "missing"
	PartModel          = "model"
	PartOptions        = "options"
	PartPayload        = "payload"
	PartPlot           = "plot"
	PartPoints         = "points"
	PartRanking        = "ranking"
	PartRegressor      = "regressor"
	PartRegressors     = "regressors"
	PartRelation       = "relation"
	PartRoot           = "root"
	PartRows           = "rows"
	PartRuleCount      = "ruleCount"
	PartRules          = "rules"
	PartSchema         = "schema"
	PartSearch         = "search"
	PartSeed           = "seed"
	PartSelected       = "selected"
	PartSession        = "session"
	PartSilhouette     = "silhouette"
	PartSummary        = "summary"
	PartTable          = "table"
	PartTables         = "tables"
	PartText           = "text"
	PartTransactions   = "transactions"
	PartTree           = "tree"
	PartURL            = "url"
	PartWhere          = "where"
)

// binaryParts are the part names whose values travel base64-encoded;
// Register types them base64Binary in the generated WSDL.
var binaryParts = map[string]bool{
	PartImage:   true,
	PartPayload: true,
}

// knownPartNames is the closed set the lint test checks In/Out lists
// against.
var knownPartNames = map[string]bool{
	PartAccuracy: true, PartAlgorithm: true, PartApproaches: true,
	PartArff: true, PartAttribute: true, PartAttributes: true,
	PartBins: true, PartClassifier: true, PartClassifiers: true,
	PartClosed: true, PartClusterer: true, PartClusterers: true,
	PartClusters: true, PartColumns: true, PartCSV: true,
	PartDataset: true, PartDepth: true, PartEncoding: true,
	PartEqualFrequency: true, PartEvaluation: true, PartEvaluator: true,
	PartFilter: true, PartFilters: true, PartFolds: true,
	PartFormat: true, PartGraph: true, PartHeader: true,
	PartImage: true, PartInstances: true, PartItemsets: true,
	PartKind: true, PartLabels: true, PartLeaves: true,
	PartLimit: true, PartMaxRules: true, PartMinConfidence: true,
	PartMinSupport: true, PartMissing: true, PartModel: true,
	PartOptions: true, PartPayload: true,
	PartPlot: true, PartPoints: true, PartRanking: true,
	PartRegressor: true, PartRegressors: true,
	PartRelation: true, PartRoot: true, PartRows: true,
	PartRuleCount: true, PartRules: true, PartSchema: true,
	PartSearch: true, PartSeed: true, PartSelected: true,
	PartSession: true, PartSilhouette: true, PartSummary: true,
	PartTable: true, PartTables: true, PartText: true,
	PartTransactions: true, PartTree: true, PartURL: true,
	PartWhere: true,
}

// KnownPartNames reports whether name belongs to the shared part-name
// vocabulary.
func KnownPartNames(name string) bool { return knownPartNames[name] }
