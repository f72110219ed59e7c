package exec

// UseBatchSize is useBatchSize for this package's external tests, which
// run whole engines over the executor and so cannot live inside it.
var UseBatchSize = useBatchSize
