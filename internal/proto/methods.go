package proto

// The method table: every rpc method and one-way stream, declared once with
// its wire id, its name and, as type parameters, its messages. Handlers,
// calls and prototest samples name a method by its descriptor, so the
// compiler holds them to its types. Ids are the wire protocol: append-only,
// never reassigned (internal/rpc/testdata/methods.golden pins them). 8
// (CreateSegment: a session creates segments from ReserveSegments' runs), 10
// and 11 (the two-step fetch FetchSeg replaced), 23 (the server-side
// large-object create), 25 (FreeRun: a logged run is never freed), 24, 26
// and 27 (AllocRun, ReadRun and WriteRun: a client reaches area bytes only
// through segments) and 12 and 40 (FetchLarge and StoreLarge: a large
// object's content is a segment of its own) are retired; 0 is a named
// frame's.

// Desc is a method's wire identity. A Desc with ID 0 names a method outside
// the table, which travels under its name (tests and probes).
type Desc struct {
	ID   uint16
	Name string
}

// Method is an rpc method whose request carries an A and whose reply an R.
type Method[A, R any] struct{ Desc }

// Stream is a one-way stream whose frames each carry an M.
type Stream[M any] struct{ Desc }

// Ptr constrains a message type's pointer: generic code over a method's
// message types takes T and Ptr[T], to make a T and use it as a Message.
type Ptr[T any] interface {
	*T
	Message
}

var (
	MethodHello           = method[HelloArgs, IDReply](1, "Hello")
	MethodOpenDB          = method[OpenDBArgs, OpenDBReply](2, "OpenDB")
	MethodNewTx           = method[ClientArgs, NewTxReply](3, "NewTx")
	MethodRegisterType    = method[RegisterTypeArgs, RegisterTypeReply](4, "RegisterType")
	MethodTypes           = method[DBArgs, TypesReply](5, "Types")
	MethodNewFileID       = method[DBArgs, IDReply](6, "NewFileID")
	MethodAddArea         = method[DBArgs, IDReply](7, "AddArea")
	MethodSegInfo         = method[SegArgs, SegInfoReply](9, "SegInfo")
	MethodFetchSeg        = method[ClientSegArgs, SegImage](13, "FetchSeg")
	MethodResolve         = method[ResolveArgs, ResolveReply](14, "Resolve")
	MethodLock            = method[LockArgs, Empty](15, "Lock")
	MethodLockObject      = method[LockObjectArgs, Empty](16, "LockObject")
	MethodCommit          = method[CommitArgs, Empty](17, "Commit")
	MethodAbort           = method[AbortArgs, Empty](18, "Abort")
	MethodPrepare         = method[CommitArgs, Empty](19, "Prepare")
	MethodDecide          = method[DecideArgs, Empty](20, "Decide")
	MethodSegmentsOf      = method[SegmentsOfArgs, SegmentsOfReply](21, "SegmentsOf")
	MethodReleased        = method[ReleasedArgs, Empty](22, "Released")
	MethodNameBind        = method[NameBindArgs, Empty](28, "NameBind")
	MethodNameLookup      = method[NameArgs, NameLookupReply](29, "NameLookup")
	MethodNameUnbind      = method[NameArgs, Empty](30, "NameUnbind")
	MethodNameRemoveOID   = method[NameRemoveOIDArgs, Empty](31, "NameRemoveOID")
	MethodCallback        = method[SegArgs, CallbackReply](32, "Callback")
	MethodScanStart       = method[ScanStartArgs, ScanStartReply](33, "ScanStart")
	StreamScanData        = stream[ScanBatch](34, "ScanData")
	StreamScanCtl         = stream[ScanCtl](35, "ScanCtl")
	MethodSnapOpen        = method[ClientArgs, SnapOpenReply](36, "SnapOpen")
	MethodSnapClose       = method[SnapCloseArgs, Empty](37, "SnapClose")
	MethodSnapFetchSeg    = method[SnapFetchArgs, SegImage](38, "SnapFetchSeg")
	MethodSnapScanStart   = method[SnapScanStartArgs, ScanStartReply](39, "SnapScanStart")
	MethodReserveSegments = method[ReserveSegmentsArgs, ReserveSegmentsReply](41, "ReserveSegments")
)

// Methods is the table by id: every entry's Desc at its id, a zero Desc at
// a retired id. The declarations above fill it as the package initializes,
// and nothing writes it after.
var Methods []Desc

func method[A, R any, _ Ptr[A], _ Ptr[R]](id uint16, name string) Method[A, R] {
	return Method[A, R]{enter(id, name)}
}

func stream[M any, _ Ptr[M]](id uint16, name string) Stream[M] { return Stream[M]{enter(id, name)} }

// enter puts id and name into the table. An id given twice overwrites its
// first entry, which TestMethodIDTablePinned, holding the table to the
// wire's, reports.
func enter(id uint16, name string) Desc {
	for len(Methods) <= int(id) {
		Methods = append(Methods, Desc{})
	}
	Methods[id] = Desc{id, name}
	return Methods[id]
}
