package dataset

// Test-only views of the schema intern table.
const (
	MaxSchemas   = maxSchemas
	MaxSchemaKey = maxSchemaKey
)

// InternedSchemas reports how many schemas the table holds.
func InternedSchemas() int {
	schemas.RLock()
	defer schemas.RUnlock()
	return len(schemas.m)
}
