open Pop_core
include Epoch_family

let name = "ebr"

let create cfg hub heap = Epoch_family.create ~fallback:false cfg hub heap

let end_op ctx = Atomic.set ctx.my_epoch max_int

let read _ctx _slot addr _proj = Atomic.get addr
