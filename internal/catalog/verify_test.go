package catalog

// Linking the static verifier registers its CompileStylesheet hook, so
// running these tests with GOLDWEB_VERIFY=1 verifies every program they
// compile.
import _ "goldweb/internal/analysis/verify"
