// Package specs embeds the committed example sweep specs. Each file is
// also a built-in sweep named after its stem (genmix.json is
// `aqlsweep -spec genmix`), so the two spellings share one definition.
package specs

import "embed"

// FS holds every *.json spec in this directory.
//
//go:embed *.json
var FS embed.FS
