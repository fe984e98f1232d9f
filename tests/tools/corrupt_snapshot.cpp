/**
 * @file
 * Test helper: damages tenant TENANT's live checkpoint snapshot inside
 * the EDDIEARC container ARCHIVE (serve::corruptArchiveValue, as chaos
 * phase C does), so a later resume reads that snapshot as corrupt and
 * every other artifact as intact.
 *
 *   corrupt_snapshot ARCHIVE TENANT
 *
 * Exits 0 when the snapshot was damaged, 1 when it is missing or the
 * archive cannot be opened or written, 2 on bad usage.
 */

#include <cstdio>

#include "core/errors.h"
#include "serve/chaos.h"
#include "serve/checkpoint.h"

int
main(int argc, char **argv)
{
    using namespace eddie::serve;
    if (argc != 3) {
        std::fprintf(stderr, "usage: corrupt_snapshot ARCHIVE TENANT\n");
        return 2;
    }
    try {
        if (corruptArchiveValue(argv[1],
                                snapshotKey(tenantKeyPrefix(argv[2]))))
            return 0;
        std::fprintf(stderr, "corrupt_snapshot: no live snapshot of "
                             "tenant %s in %s\n",
                     argv[2], argv[1]);
    } catch (const eddie::core::Error &e) {
        std::fprintf(stderr, "corrupt_snapshot: %s\n", e.what());
    }
    return 1;
}
