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
	partAlgorithm      = "algorithm"
	partApproaches     = "approaches"
	partArff           = "arff"
	PartAttribute      = "attribute"
	partAttributes     = "attributes"
	partBins           = "bins"
	PartClassifier     = "classifier"
	PartClassifiers    = "classifiers"
	partClosed         = "closed"
	PartClusterer      = "clusterer"
	partClusterers     = "clusterers"
	PartClusters       = "clusters"
	partColumns        = "columns"
	partCSV            = "csv"
	PartDataset        = "dataset"
	partDepth          = "depth"
	PartEncoding       = "encoding"
	partEqualFrequency = "equalFrequency"
	PartEvaluation     = "evaluation"
	partEvaluator      = "evaluator"
	PartFilter         = "filter"
	partFilters        = "filters"
	partFolds          = "folds"
	partFormat         = "format"
	partGraph          = "graph"
	partHeader         = "header"
	partImage          = "image"
	PartInstances      = "instances"
	partItemsets       = "itemsets"
	partKind           = "kind"
	PartLabels         = "labels"
	partLeaves         = "leaves"
	partLimit          = "limit"
	partMaxRules       = "maxRules"
	partMinConfidence  = "minConfidence"
	partMinSupport     = "minSupport"
	partMissing        = "missing"
	PartModel          = "model"
	PartOptions        = "options"
	PartPayload        = "payload"
	partPlot           = "plot"
	partPoints         = "points"
	partRanking        = "ranking"
	PartRegressor      = "regressor"
	partRegressors     = "regressors"
	partRelation       = "relation"
	partRoot           = "root"
	PartRows           = "rows"
	partRuleCount      = "ruleCount"
	partRules          = "rules"
	partSchema         = "schema"
	partSearch         = "search"
	partSeed           = "seed"
	partSelected       = "selected"
	PartSession        = "session"
	partSilhouette     = "silhouette"
	partSummary        = "summary"
	partTable          = "table"
	partTables         = "tables"
	partText           = "text"
	partTransactions   = "transactions"
	partTree           = "tree"
	partURL            = "url"
	partWhere          = "where"
)

// binaryParts are the part names whose values travel base64-encoded;
// register types them base64Binary in the generated WSDL.
var binaryParts = map[string]bool{
	partImage:   true,
	PartPayload: true,
}

// knownPartNames is the closed set the lint test checks In/Out lists
// against.
var knownPartNames = map[string]bool{
	PartAccuracy: true, partAlgorithm: true, partApproaches: true,
	partArff: true, PartAttribute: true, partAttributes: true,
	partBins: true, PartClassifier: true, PartClassifiers: true,
	partClosed: true, PartClusterer: true, partClusterers: true,
	PartClusters: true, partColumns: true, partCSV: true,
	PartDataset: true, partDepth: true, PartEncoding: true,
	partEqualFrequency: true, PartEvaluation: true, partEvaluator: true,
	PartFilter: true, partFilters: true, partFolds: true,
	partFormat: true, partGraph: true, partHeader: true,
	partImage: true, PartInstances: true, partItemsets: true,
	partKind: true, PartLabels: true, partLeaves: true,
	partLimit: true, partMaxRules: true, partMinConfidence: true,
	partMinSupport: true, partMissing: true, PartModel: true,
	PartOptions: true, PartPayload: true,
	partPlot: true, partPoints: true, partRanking: true,
	PartRegressor: true, partRegressors: true,
	partRelation: true, partRoot: true, PartRows: true,
	partRuleCount: true, partRules: true, partSchema: true,
	partSearch: true, partSeed: true, partSelected: true,
	PartSession: true, partSilhouette: true, partSummary: true,
	partTable: true, partTables: true, partText: true,
	partTransactions: true, partTree: true, partURL: true,
	partWhere: true,
}
