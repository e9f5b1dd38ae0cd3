package services

import (
	"testing"

	"repro/internal/dataaccess"
	"repro/internal/harness"
	"repro/internal/wsdl"
)

// allServices constructs every deployable service, mirroring the
// core.Deploy set.
func allServices() []*Service {
	backend := harness.NewCachedBackend(4)
	return []*Service{
		NewClassifierService(backend),
		NewJ48Service(backend),
		NewClustererService(),
		NewCobwebService(),
		NewAssociationService(),
		NewAttributeSelectionService(),
		NewDataConvertService(nil),
		NewFilterService(),
		NewRegressorService(),
		NewDataAccessService(dataaccess.NewDatabase()),
		NewSessionService(backend),
		NewPlotService(),
		NewMathService(),
		NewTreeAnalyzerService(),
	}
}

// TestOpPartNamesAreRegistered is the lint gate for the shared part-name
// vocabulary: every In/Out name any operation declares must come from
// the constants in partnames.go. A service inventing a new spelling —
// or resurrecting a duplicate convention like "algorithm" where
// "classifier" is meant — fails here before it can reach the wire.
func TestOpPartNamesAreRegistered(t *testing.T) {
	for _, svc := range allServices() {
		for _, op := range svc.Desc.Ops {
			for _, p := range op.Inputs {
				if !knownPartNames[p.Name] {
					t.Errorf("%s.%s input part %q is not in the shared part-name vocabulary (partnames.go)",
						svc.Name, op.Name, p.Name)
				}
			}
			for _, p := range op.Outputs {
				if !knownPartNames[p.Name] {
					t.Errorf("%s.%s output part %q is not in the shared part-name vocabulary (partnames.go)",
						svc.Name, op.Name, p.Name)
				}
			}
		}
	}
}

// TestBinaryPartsTypedInWSDL pins the WSDL typing of base64 parts: any
// op that takes or returns payload or image must describe it as
// base64Binary — inputs matter now that filterBatch, clusterBatch and
// regressBatch accept blocks.
func TestBinaryPartsTypedInWSDL(t *testing.T) {
	for _, svc := range allServices() {
		for _, op := range svc.Desc.Ops {
			for _, p := range append(append([]wsdl.Part(nil), op.Inputs...), op.Outputs...) {
				want := ""
				if binaryParts[p.Name] {
					want = "base64Binary"
				}
				if p.Type != want {
					t.Errorf("%s.%s part %q typed %q, want %q", svc.Name, op.Name, p.Name, p.Type, want)
				}
			}
		}
	}
}
