package wire

import "strings"

// Result-block kinds beyond classification. clusterBatch replies carry a
// "DMC1" block (per-row cluster assignments plus one score column per
// cluster — centroid distances or mixture responsibilities), regressBatch
// replies a "DMV1" block (one predicted-value column). filterBatch needs
// no sibling: its output is a transformed dataset, so it ships a plain
// dmb1 block back.

const (
	magicCluster = "DMC1"
	magicRegress = "DMV1"
)

// Score-kind names for ClusterResult.ScoreKind: what the per-cluster
// score columns measure.
const (
	ScoreNone           = ""
	ScoreDistance       = "distance"       // euclidean distance to each centroid
	ScoreResponsibility = "responsibility" // posterior probability of each component
)

func scoreKindCode(k string) (uint8, error) {
	switch k {
	case ScoreNone:
		return 0, nil
	case ScoreDistance:
		return 1, nil
	case ScoreResponsibility:
		return 2, nil
	default:
		return 0, errf("unknown score kind %q", k)
	}
}

func scoreKindFromCode(c uint8) (string, error) {
	switch c {
	case 0:
		return ScoreNone, nil
	case 1:
		return ScoreDistance, nil
	case 2:
		return ScoreResponsibility, nil
	default:
		return "", errf("unknown score kind code %d", c)
	}
}

// ClusterResult is the decoded form of a DMC1 cluster-assignment block:
// one cluster index per input row (negative = noise), plus — when the
// assigner produces them — one score column per cluster.
type ClusterResult struct {
	Clusters    int
	ScoreKind   string      // ScoreNone, ScoreDistance or ScoreResponsibility
	Assignments []int       // per-row cluster index; < 0 encodes noise
	Scores      [][]float64 // Scores[c][i]; len == Clusters iff ScoreKind != ScoreNone
}

// MarshalClusterResultBase64 encodes a cluster result straight into the
// base64 text of its DMC1 block:
//
//	"DMC1" u8 version
//	u8  scoreKind     0 none, 1 distance, 2 responsibility
//	u32 clusters
//	u32 rows
//	assignment block: u32 byte length, rows u32 indices (0xFFFFFFFF = noise)
//	per cluster:      length-prefixed float64 column, present iff scoreKind != 0
func MarshalClusterResultBase64(res *ClusterResult) (string, error) {
	kc, err := res.check()
	if err != nil {
		return "", err
	}
	var stage [stageBytes]byte
	var text strings.Builder
	w := textWriter(&text, stage[:], res.size(), 0)
	if err := res.write(&w, kc); err != nil {
		return "", err
	}
	return w.finish(), nil
}

// check validates res and returns its score-kind code.
func (res *ClusterResult) check() (uint8, error) {
	if res.Clusters < 0 {
		return 0, errf("negative cluster count %d", res.Clusters)
	}
	kc, err := scoreKindCode(res.ScoreKind)
	if err != nil {
		return 0, err
	}
	if kc == 0 {
		if len(res.Scores) != 0 {
			return 0, errf("%d score columns with no score kind", len(res.Scores))
		}
	} else {
		if len(res.Scores) != res.Clusters {
			return 0, errf("%d score columns for %d clusters", len(res.Scores), res.Clusters)
		}
		for c, col := range res.Scores {
			if len(col) != len(res.Assignments) {
				return 0, errf("cluster %d score column has %d rows, want %d", c, len(col), len(res.Assignments))
			}
		}
	}
	return kc, nil
}

// size is the exact length of res's DMC1 block.
func (res *ClusterResult) size() int {
	rows := len(res.Assignments)
	return len(magicCluster) + 1 + 1 + 4 + 4 + 4 + 4*rows + len(res.Scores)*(4+8*rows)
}

func (res *ClusterResult) write(w *writer, kc uint8) error {
	w.bytes(magicCluster)
	w.u8(version)
	w.u8(kc)
	w.u32(uint32(res.Clusters))
	w.u32(uint32(len(res.Assignments)))
	if err := writeIndexColumn(w, res.Assignments, res.Clusters, true, "assignment"); err != nil {
		return err
	}
	for _, col := range res.Scores {
		writeColumn(w, col)
	}
	return nil
}

// UnmarshalClusterResult decodes one DMC1 block.
func UnmarshalClusterResult(b []byte) (*ClusterResult, error) {
	r := rawReader(b)
	return readClusterResult(&r)
}

// UnmarshalClusterResultBase64 decodes the base64 text of a DMC1 block
// straight into its columns.
func UnmarshalClusterResultBase64(s string) (*ClusterResult, error) {
	var stage [stageBytes]byte
	r := textReader(s, stage[:])
	if res, err := readClusterResult(&r); err == nil {
		return res, nil
	}
	return decodeText(s, "cluster result", UnmarshalClusterResult)
}

func readClusterResult(r *reader) (*ClusterResult, error) {
	r.Header(magicCluster, version)
	kind, err := scoreKindFromCode(r.U8())
	if err != nil {
		return nil, err
	}
	clusters, rows := r.U32(), int(r.U32())
	if clusters > 1<<24 {
		r.Failf("cluster count %d exceeds limit", clusters)
	}
	assign := readIndexColumn(r, rows, clusters, true, "assignment")
	var scores [][]float64
	if kind != ScoreNone && r.Err() == nil {
		if uint64(clusters)*(4+8*uint64(rows)) > uint64(r.Len()) {
			return nil, errf("%d clusters x %d rows of scores exceeds the payload", clusters, rows)
		}
		scores = make([][]float64, clusters)
		slab := columnSlab(r, rows, len(scores))
		for c := range scores {
			scores[c] = readColumn(r, rows, &slab)
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return &ClusterResult{
		Clusters:    int(clusters),
		ScoreKind:   kind,
		Assignments: assign,
		Scores:      scores,
	}, nil
}

// RegressResult is the decoded form of a DMV1 regression-prediction
// block: the target attribute's name and one predicted value per row.
type RegressResult struct {
	Target string
	Values []float64
}

// MarshalRegressResultBase64 encodes predictions straight into the base64
// text of their DMV1 block:
//
//	"DMV1" u8 version
//	str target        the attribute the predictions estimate
//	u32 rows
//	length-prefixed float64 column of rows predictions
func MarshalRegressResultBase64(res *RegressResult) (string, error) {
	var stage [stageBytes]byte
	var text strings.Builder
	w := textWriter(&text, stage[:], res.size(), 0)
	res.write(&w)
	return w.finish(), nil
}

// size is the exact length of res's DMV1 block.
func (res *RegressResult) size() int {
	return len(magicRegress) + 1 + 4 + len(res.Target) + 4 + 4 + 8*len(res.Values)
}

func (res *RegressResult) write(w *writer) {
	w.bytes(magicRegress)
	w.u8(version)
	w.str(res.Target)
	w.u32(uint32(len(res.Values)))
	writeColumn(w, res.Values)
}

// UnmarshalRegressResult decodes one DMV1 block.
func UnmarshalRegressResult(b []byte) (*RegressResult, error) {
	r := rawReader(b)
	return readRegressResult(&r)
}

// UnmarshalRegressResultBase64 decodes the base64 text of a DMV1 block
// straight into its column.
func UnmarshalRegressResultBase64(s string) (*RegressResult, error) {
	var stage [stageBytes]byte
	r := textReader(s, stage[:])
	if res, err := readRegressResult(&r); err == nil {
		return res, nil
	}
	return decodeText(s, "regression result", UnmarshalRegressResult)
}

func readRegressResult(r *reader) (*RegressResult, error) {
	r.Header(magicRegress, version)
	target, rows := r.Str(), int(r.U32())
	if uint64(rows)*8 > maxBlockBytes {
		r.Failf("%d rows exceeds payload limit", rows)
	}
	vals := readColumn(r, rows, nil)
	if err := r.End(); err != nil {
		return nil, err
	}
	return &RegressResult{Target: target, Values: vals}, nil
}
