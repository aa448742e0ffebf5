module hpcbd/ledger

go 1.23

require hpcbd v0.0.0

replace hpcbd => ../
