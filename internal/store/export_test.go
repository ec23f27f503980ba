package store

// The in-package test helpers and codec constants that the tests in package
// store_test use: those build their KBs with core and kb, which import store.
var (
	RefSelect            = refSelect
	ShardedQueries       = shardedQueries
	CheckLayout          = checkLayout
	DecodeBinarySnapshot = decodeBinarySnapshot
	OrderFacts           = orderFacts
	OrderKBs             = orderKBs
	CheckStrings         = checkStrings
	CheckRoundTrip       = checkRoundTrip
	CheckDecoder         = checkDecoder
)

const (
	BinMagic      = binMagic
	BinHeaderLen  = binHeaderLen
	BinTrailerLen = binTrailerLen
)
