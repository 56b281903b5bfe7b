// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` never depends on it; its import path
// sits under the root module's, which is what lets it import internal/...
module github.com/greta-cep/greta/benchmark

go 1.24.0

require github.com/greta-cep/greta v0.0.0

replace github.com/greta-cep/greta => ../
